(* Statistics helpers of the benchmark.  Kept free of the library so
   their tests run on their own. *)

let min_beyond = 10

(* Nearest-rank percentile of [p] in (0, 1]: the value at rank
   ceil(p * n) of the sorted samples.  Refused when fewer than
   [min_beyond] samples lie above that rank, because the value would
   then rest on a handful of observations. *)
let percentile samples p =
  if not (p > 0.0 && p <= 1.0) then invalid_arg "Stats.percentile: p";
  let n = Array.length samples in
  let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n))) in
  let beyond = n - rank in
  if n = 0 || beyond < min_beyond then
    Error
      (Printf.sprintf "p%g needs %d samples beyond it; %d samples leave %d"
         (100.0 *. p) min_beyond n (max 0 beyond))
  else
    let sorted = Array.copy samples in
    Array.sort compare sorted;
    Ok sorted.(rank - 1)

let median samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let s = Array.copy samples in
  Array.sort compare s;
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* Host-speed factors of a run timed in chunks.  [samples] holds the
   reference kernel's time taken before each chunk and one more after
   the last, so chunk [j] lies between [samples.(j)] and
   [samples.(j+1)].  Its factor is [reference] over the median of the
   up to four samples [j-1 .. j+2] around it: a time multiplied by it
   reads as on a host where the kernel takes [reference].  The median
   keeps a single disturbed kernel run from moving a chunk. *)
let chunk_factors ~reference samples =
  let n = Array.length samples - 1 in
  if n < 1 then invalid_arg "Stats.chunk_factors: need two samples";
  Array.init n (fun j ->
      let lo = max 0 (j - 1) and hi = min n (j + 2) in
      reference /. median (Array.sub samples lo (hi - lo + 1)))

(* A ratio that always travels with its base. *)
type ratio = { num : float; base : float }

let ratio num base = { num; base }

let share r = if r.base = 0.0 then 0.0 else r.num /. r.base

let ratio_to_string r =
  Printf.sprintf "%.4f (%.15g/%.15g)" (share r) r.num r.base

(* Open-loop timing of one request: [due] is when the schedule said to
   send it, [sent] when the generator actually wrote it, [done_] when
   the whole reply had been read.  Latency counts from [due], so a
   generator or server stall is charged to every request it delays;
   [lateness] is how far the generator itself ran behind. *)
type timing = { due : float; sent : float; done_ : float }

let latency t = t.done_ -. t.due

let lateness t = Float.max 0.0 (t.sent -. t.due)
