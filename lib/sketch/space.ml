let pp_bytes ppf words =
  Format.fprintf ppf "%d words (%.1f KiB)" words (float_of_int words *. 8.0 /. 1024.0)

module Budget = struct
  type t = {
    budget : int;
    strict : bool;
    mutable peak : int;
    mutable samples : int;
    mutable overshoots : int;
  }

  exception Exceeded of { budget : int; words : int }

  let create ?(strict = false) budget =
    if budget <= 0 then invalid_arg "Space.Budget.create: budget must be positive";
    { budget; strict; peak = 0; samples = 0; overshoots = 0 }

  let observe t words =
    t.samples <- t.samples + 1;
    if words > t.peak then t.peak <- words;
    if words > t.budget then begin
      (* count the overshoot before raising so a caught [Exceeded]
         still leaves an accurate record for the snapshot *)
      t.overshoots <- t.overshoots + 1;
      if t.strict then raise (Exceeded { budget = t.budget; words })
    end

  let budget t = t.budget
  let strict t = t.strict
  let peak t = t.peak
  let samples t = t.samples
  let overshoots t = t.overshoots

  let headroom t =
    if t.budget <= 0 then 0.0 else float_of_int t.peak /. float_of_int t.budget
end
