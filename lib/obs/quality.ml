let ratio ~num ~den = if den <= 0 then 0.0 else float_of_int num /. float_of_int den

let record_ratio ?(registry = Registry.global) name ~num ~den =
  Registry.set (Registry.gauge registry name) (ratio ~num ~den)

let record_relative_error ?(registry = Registry.global) name ~truth ~estimate =
  let g suffix v = Registry.set (Registry.gauge registry (name ^ "." ^ suffix)) v in
  g "truth" (float_of_int truth);
  g "estimate" (float_of_int estimate);
  let err =
    if truth = 0 then 0.0
    else Float.abs (float_of_int estimate -. float_of_int truth) /. float_of_int truth
  in
  g "relative_error" err

let record_budget ?(registry = Registry.global) ~budget_words ~peak_words ~overshoots ~samples
    () =
  let g name v = Registry.set (Registry.gauge registry name) v in
  g "space.budget_words" (float_of_int budget_words);
  g "space.peak_words" (float_of_int peak_words);
  g "space.headroom" (ratio ~num:peak_words ~den:budget_words);
  g "space.overshoots" (float_of_int overshoots);
  g "space.samples" (float_of_int samples)
