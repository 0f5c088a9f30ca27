type result = { chosen : int list; coverage : int }

(* Max-heap of (gain, candidate) in two int arrays.  [heap_push] and
   [heap_pop] make the comparisons of the textbook array heap (strictly
   greater gain moves up; on the way down the left child is tried
   first), so equal gains leave in an order fixed by the push sequence
   alone.  Hole-based sifting: the moving entry is written once, where
   it stops. *)
let heap_push hg hc size g c =
  let i = ref size in
  while !i > 0 && g > Array.unsafe_get hg ((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    Array.unsafe_set hg !i (Array.unsafe_get hg p);
    Array.unsafe_set hc !i (Array.unsafe_get hc p);
    i := p
  done;
  Array.unsafe_set hg !i g;
  Array.unsafe_set hc !i c

(* Drop the root of a heap of [size + 1] entries: the last entry moves
   to the root and sifts down. *)
let heap_pop hg hc size =
  let g = Array.unsafe_get hg size and c = Array.unsafe_get hc size in
  let i = ref 0 and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let best = ref !i and bg = ref g in
    if l < size && Array.unsafe_get hg l > !bg then begin
      best := l;
      bg := Array.unsafe_get hg l
    end;
    if r < size && Array.unsafe_get hg r > !bg then best := r;
    if !best = !i then continue := false
    else begin
      Array.unsafe_set hg !i (Array.unsafe_get hg !best);
      Array.unsafe_set hc !i (Array.unsafe_get hc !best);
      i := !best
    end
  done;
  Array.unsafe_set hg !i g;
  Array.unsafe_set hc !i c

let is_covered bm e = Char.code (Bytes.unsafe_get bm (e lsr 3)) land (1 lsl (e land 7)) <> 0

let cover bm e =
  let b = e lsr 3 in
  Bytes.unsafe_set bm b (Char.unsafe_chr (Char.code (Bytes.unsafe_get bm b) lor (1 lsl (e land 7))))

(* A member listed twice counts twice: the bitmap is only written when
   a candidate is picked. *)
let gain bm off elts c =
  let g = ref 0 in
  for j = Array.unsafe_get off c to Array.unsafe_get off (c + 1) - 1 do
    if not (is_covered bm (Array.unsafe_get elts j)) then incr g
  done;
  !g

(* Offsets must be monotone inside [elts] and members non-negative; the
   bitmap spans [n] and any larger member. *)
let universe ~n ~nc ~off ~elts =
  if Array.length off < nc + 1 then invalid_arg "Greedy.run_csr: off too short";
  let top = ref (n - 1) in
  for c = 0 to nc - 1 do
    let lo = off.(c) and hi = off.(c + 1) in
    if lo < 0 || hi < lo || hi > Array.length elts then
      invalid_arg "Greedy.run_csr: offsets not monotone inside elts";
    for j = lo to hi - 1 do
      let e = Array.unsafe_get elts j in
      if e < 0 then invalid_arg "Greedy.run_csr: negative member";
      if e > !top then top := e
    done
  done;
  !top + 1

let run_csr ~n ~ids ~off ~elts ~k =
  let nc = Array.length ids in
  let bm = Bytes.make ((universe ~n ~nc ~off ~elts + 7) / 8) '\000' in
  let hg = Array.make (max 1 nc) 0 and hc = Array.make (max 1 nc) 0 in
  for c = 0 to nc - 1 do
    heap_push hg hc c (off.(c + 1) - off.(c)) c
  done;
  let size = ref nc and chosen = ref [] and total = ref 0 and picked = ref 0 in
  while !picked < k && !size > 0 do
    let stale = Array.unsafe_get hg 0 and c = Array.unsafe_get hc 0 in
    decr size;
    heap_pop hg hc !size;
    let fresh = gain bm off elts c in
    if fresh <> stale then begin
      heap_push hg hc !size fresh c;
      incr size
    end
    else if fresh > 0 then begin
      (* Submodularity: a top entry with an up-to-date gain is the true
         argmax; no other entry can exceed its stale bound. *)
      for j = off.(c) to off.(c + 1) - 1 do
        cover bm (Array.unsafe_get elts j)
      done;
      chosen := ids.(c) :: !chosen;
      total := !total + fresh;
      incr picked
    end
    else size := 0
  done;
  { chosen = List.rev !chosen; coverage = !total }

(* [count] rows, row [i]'s members [row i], as CSR offsets and members. *)
let csr count row =
  let off = Array.make (count + 1) 0 in
  for i = 0 to count - 1 do
    off.(i + 1) <- off.(i) + Array.length (row i)
  done;
  let elts = Array.make off.(count) 0 in
  for i = 0 to count - 1 do
    let s = row i in
    Array.blit s 0 elts off.(i) (Array.length s)
  done;
  (off, elts)

let run sys ~k =
  let m = Mkc_stream.Set_system.m sys in
  let off, elts = csr m (Mkc_stream.Set_system.set sys) in
  run_csr ~n:(Mkc_stream.Set_system.n sys) ~ids:(Array.init m Fun.id) ~off ~elts ~k

let run_on_subsets ~n ~sets ~k =
  let rows = Array.of_list sets in
  let off, elts = csr (Array.length rows) (fun i -> snd rows.(i)) in
  run_csr ~n ~ids:(Array.map fst rows) ~off ~elts ~k
