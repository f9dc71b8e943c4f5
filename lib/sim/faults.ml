open Ddlock_model

type window = { site : Db.site; from_t : float; until_t : float }

type plan = {
  crashes : window list;
  stalls : window list;
  loss : float;
  dup : float;
  retransmit : float;
  horizon : float;
  seed : int;
}

let none =
  {
    crashes = [];
    stalls = [];
    loss = 0.0;
    dup = 0.0;
    retransmit = 2.0;
    horizon = 0.0;
    seed = 0;
  }

let is_none p =
  p.crashes = [] && p.stalls = [] && p.loss = 0.0 && p.dup = 0.0

let random st db ~intensity ~horizon =
  let intensity = Float.min 1.0 (Float.max 0.0 intensity) in
  let sites = max 1 (Db.site_count db) in
  let windows n max_len =
    List.init n (fun _ ->
        let site = Random.State.int st sites in
        let from_t = Random.State.float st horizon in
        let len = 0.5 +. Random.State.float st (max 1e-9 max_len) in
        { site; from_t; until_t = from_t +. len })
  in
  let count scale =
    if intensity = 0.0 then 0
    else Random.State.int st (1 + int_of_float (intensity *. scale))
  in
  {
    crashes = windows (count 2.5) (horizon /. 5.0);
    stalls = windows (count 3.5) (horizon /. 8.0);
    loss = intensity *. Random.State.float st 0.4;
    dup = intensity *. Random.State.float st 0.3;
    retransmit = 1.0 +. Random.State.float st 2.0;
    horizon;
    seed = Random.State.bits st;
  }

let pp_window db ppf w =
  Format.fprintf ppf "%s@%.1f..%.1f" (Db.site_name db w.site) w.from_t
    w.until_t

let pp db ppf p =
  let pp_list ppf ws =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
      (pp_window db) ppf ws
  in
  Format.fprintf ppf
    "loss=%.2f dup=%.2f retransmit=%.1f horizon=%.0f crashes=[%a] stalls=[%a]"
    p.loss p.dup p.retransmit p.horizon pp_list p.crashes pp_list p.stalls

(* The private stream is made on its first draw: a plan without loss or
   duplication never draws, and never pays for it. *)
type t = { plan : plan; rng : Random.State.t Lazy.t }

(* Seeding a stream costs several times a copy, so each domain keeps
   the freshly seeded stream of the last seed it met: a batch or sweep
   that replays one plan seeds once and hands each run a copy, which
   draws exactly what a freshly seeded stream would. *)
let seeded = Domain.DLS.new_key (fun () -> ref None)

let stream seed =
  let last = Domain.DLS.get seeded in
  match !last with
  | Some (s, st) when s = seed -> Random.State.copy st
  | _ ->
      let st = Random.State.make [| seed; 0xfa17 |] in
      last := Some (seed, st);
      Random.State.copy st

let injector plan = { plan; rng = lazy (stream plan.seed) }
let plan t = t.plan

(* Fault-event telemetry: one counter per injection kind, incremented at
   the moment the injector decides to perturb a delivery. *)
let obs_lost = Ddlock_obs.Metrics.Counter.make "sim.faults.lost_messages"
let obs_dup = Ddlock_obs.Metrics.Counter.make "sim.faults.duplicated_requests"
let obs_crash_delay = Ddlock_obs.Metrics.Counter.make "sim.faults.crash_delays"
let obs_stall_delay = Ddlock_obs.Metrics.Counter.make "sim.faults.stall_delays"

(* The first window of [site] in [ws] that holds [now]. *)
let rec covering ws ~site ~now =
  match ws with
  | [] -> None
  | w :: rest ->
      if w.site = site && w.from_t <= now && now < w.until_t then Some w
      else covering rest ~site ~now

(* Earliest time >= now outside every [ws] window of [site]; windows may
   overlap, so iterate to a fixpoint. *)
let rec past_windows ws ~site ~now =
  match covering ws ~site ~now with
  | Some w -> past_windows ws ~site ~now:w.until_t
  | None -> now

let up_at t ~site ~now = past_windows t.plan.crashes ~site ~now

let deliver t ~site ~now ~transit =
  let p = t.plan in
  (* Each send attempt before the horizon may be lost; a loss is noticed
     and retransmitted after [p.retransmit]. *)
  let sent = ref now in
  if p.loss > 0.0 then
    while
      !sent < p.horizon && Random.State.float (Lazy.force t.rng) 1.0 < p.loss
    do
      Ddlock_obs.Metrics.Counter.incr obs_lost;
      sent := !sent +. p.retransmit
    done;
  let arrival = !sent +. transit in
  match (p.crashes, p.stalls) with
  | [], [] -> arrival
  | _ ->
      let crash_free = past_windows p.crashes ~site ~now:arrival in
      if crash_free > arrival then
        Ddlock_obs.Metrics.Counter.incr obs_crash_delay;
      let stall_free = past_windows p.stalls ~site ~now:crash_free in
      if stall_free > crash_free then
        Ddlock_obs.Metrics.Counter.incr obs_stall_delay;
      stall_free

let duplicated t ~now =
  let p = t.plan in
  let dup =
    p.dup > 0.0 && now < p.horizon
    && Random.State.float (Lazy.force t.rng) 1.0 < p.dup
  in
  if dup then Ddlock_obs.Metrics.Counter.incr obs_dup;
  dup
