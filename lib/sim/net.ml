open Ddlock_model

type config = {
  min_duration : float;
  max_duration : float;
  site_latency : float;
  request_jitter : float;
}

let default_config =
  { min_duration = 1.0; max_duration = 2.0; site_latency = 0.5; request_jitter = 2.0 }

type t = {
  config : config;
  rng : Random.State.t;
  inj : Faults.t;
  db : Db.t;
  last_site : int array;
}

let create config rng inj db ~txns =
  { config; rng; inj; db; last_site = Array.make txns (-1) }

(* [max 1e-9 x] on floats, without the polymorphic comparison's C call
   (a NaN [x] is kept, as [max] keeps it). *)
let at_least_tiny x = if 1e-9 >= x then 1e-9 else x

let execute t q ~now i e ev =
  let c = t.config in
  let d =
    c.min_duration
    +. Random.State.float t.rng
         (at_least_tiny (c.max_duration -. c.min_duration))
  in
  let site = Db.site_of t.db e in
  let extra =
    if t.last_site.(i) >= 0 && t.last_site.(i) <> site then c.site_latency
    else 0.0
  in
  t.last_site.(i) <- site;
  Pqueue.push q (Faults.deliver t.inj ~site ~now ~transit:(d +. extra)) ev

let request t q ~now e ev =
  let site = Db.site_of t.db e in
  let transit =
    Random.State.float t.rng (at_least_tiny t.config.request_jitter)
  in
  Pqueue.push q (Faults.deliver t.inj ~site ~now ~transit) ev;
  if Faults.duplicated t.inj ~now then
    Pqueue.push q (Faults.deliver t.inj ~site ~now ~transit) ev
