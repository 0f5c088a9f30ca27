let record ?(registry = Registry.global) name ~start_ns ~dur_ns =
  if Trace.enabled () then Trace.complete name ~start_ns ~dur_ns;
  if Registry.enabled () then
    Registry.observe_ns (Registry.histogram registry ("span." ^ name ^ ".ns")) dur_ns

type handle = { hname : string; hstart : int; hreg : Registry.t; live : bool }

let start ?(registry = Registry.global) name =
  if Registry.enabled () || Trace.enabled () then
    { hname = name; hstart = Clock.now_ns (); hreg = registry; live = true }
  else { hname = name; hstart = 0; hreg = registry; live = false }

let finish h =
  if h.live then
    record ~registry:h.hreg h.hname ~start_ns:h.hstart
      ~dur_ns:(Clock.now_ns () - h.hstart)

let with_ ?registry name f =
  let h = start ?registry name in
  Fun.protect ~finally:(fun () -> finish h) f
