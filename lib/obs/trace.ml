type event = {
  name : string;
  cat : string;
  ts_ns : int;
  dur_ns : int;
  tid : int;
  req : int;
  args : (string * string) list;
}

(* Spans are per analysis phase or per daemon request stage, never
   per state, so one global lock is cold.  One shared buffer also lets
   [take_request] collect a request whose spans were recorded on
   different domains (the connection handler and a pool worker). *)
let buf : event list ref = ref []
let lock = Mutex.create ()
let epoch = Clock.now_ns ()

let record ev =
  Mutex.lock lock;
  buf := ev :: !buf;
  Mutex.unlock lock

let span ?(cat = "ddlock") ?req ?(args = []) name f =
  if not (Control.is_on ()) then f ()
  else begin
    (* Resolve the request id at entry: the ambient slot could change
       under a [Request.with_id] nested inside [f]. *)
    let req = match req with Some r -> r | None -> Request.current () in
    let t0 = Clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Clock.now_ns () in
        record
          {
            name;
            cat;
            ts_ns = t0 - epoch;
            dur_ns = t1 - t0;
            tid = (Domain.self () :> int);
            req;
            args;
          })
      f
  end

let instant ?(cat = "ddlock") ?req ?(args = []) name =
  if Control.is_on () then
    let req = match req with Some r -> r | None -> Request.current () in
    record
      {
        name;
        cat;
        ts_ns = Clock.now_ns () - epoch;
        dur_ns = -1;
        tid = (Domain.self () :> int);
        req;
        args;
      }

let chronological evs =
  List.sort (fun a b -> compare (a.ts_ns, a.dur_ns) (b.ts_ns, b.dur_ns)) evs

let events () =
  Mutex.lock lock;
  let evs = !buf in
  Mutex.unlock lock;
  chronological evs

let take_request req =
  Mutex.lock lock;
  let mine, rest = List.partition (fun ev -> ev.req = req) !buf in
  buf := rest;
  Mutex.unlock lock;
  chronological mine

let clear () =
  Mutex.lock lock;
  buf := [];
  Mutex.unlock lock

(* ----------------------- Chrome trace JSON ------------------------- *)

let escape = Json.escape

let emit_event b ev =
  Buffer.add_string b
    (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"pid\":1,\"tid\":%d,\"ts\":%.3f"
       (escape ev.name) (escape ev.cat)
       (if ev.dur_ns < 0 then "i" else "X")
       ev.tid
       (Clock.ns_to_us ev.ts_ns));
  if ev.dur_ns >= 0 then
    Buffer.add_string b (Printf.sprintf ",\"dur\":%.3f" (Clock.ns_to_us ev.dur_ns))
  else Buffer.add_string b ",\"s\":\"t\"";
  let args =
    if ev.req = Request.none then ev.args
    else ("req", string_of_int ev.req) :: ev.args
  in
  (match args with
  | [] -> ()
  | args ->
      Buffer.add_string b ",\"args\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf "\"%s\":\"%s\"" (escape k) (escape v)))
        args;
      Buffer.add_char b '}');
  Buffer.add_char b '}'

let buffer_chrome_json b evs =
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n  ";
      emit_event b ev)
    evs;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n"

let chrome_json evs =
  let b = Buffer.create 4096 in
  buffer_chrome_json b evs;
  Buffer.contents b

let write_chrome_json oc = output_string oc (chrome_json (events ()))

let summary () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      let n, ms = try Hashtbl.find tbl ev.name with Not_found -> (0, 0.0) in
      Hashtbl.replace tbl ev.name
        (n + 1, ms +. (float_of_int (max 0 ev.dur_ns) /. 1e6)))
    (events ());
  List.sort compare
    (Hashtbl.fold (fun name (n, ms) acc -> (name, n, ms) :: acc) tbl [])

let pp_summary ppf rows =
  if rows = [] then Format.fprintf ppf "  (no spans recorded)@,"
  else
    List.iter
      (fun (name, n, ms) ->
        Format.fprintf ppf "  %-38s x%-6d %.2f ms@," name n ms)
      rows
