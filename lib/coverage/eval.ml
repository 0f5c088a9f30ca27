let ratio ~opt ~achieved =
  if achieved <= 0 then infinity else float_of_int opt /. float_of_int achieved

let within_factor ~opt ~achieved ~factor =
  let opt = float_of_int opt in
  achieved >= (opt /. factor) -. 1e-9 && achieved <= (opt *. 1.01) +. 1e-9
