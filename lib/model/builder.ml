type step = L of string | U of string

let node_of_step db = function
  | L name -> Node.lock (Db.find_entity_exn db name)
  | U name -> Node.unlock (Db.find_entity_exn db name)

let key db = function
  | L name -> 2 * Db.find_entity_exn db name
  | U name -> (2 * Db.find_entity_exn db name) + 1

type chains = {
  mutable keys : int array;
  mutable len : int;
  mutable work : int array;
      (* [compile]'s arcs, then each node key's id + 1 (0 while
         unnumbered) *)
}

let buffer () = { keys = Array.make 16 0; len = 0; work = [||] }

let[@inline] add b k =
  if b.len = Array.length b.keys then begin
    let a = Array.make (2 * b.len) 0 in
    Array.blit b.keys 0 a 0 b.len;
    b.keys <- a
  end;
  b.keys.(b.len) <- k;
  b.len <- b.len + 1

(* The arcs are at most one per mentioned entity and one per pair of
   keys. *)
let compile db b =
  let ne = Db.entity_count db and keys = b.keys and len = b.len in
  let id = 2 * (min ne len + len) in
  if Array.length b.work < id + (2 * ne) then
    b.work <- Array.make (2 * (id + (2 * ne))) 0
  else
    for k = id to id + (2 * ne) - 1 do
      b.work.(k) <- 0
    done;
  let a = b.work and count = ref 0 in
  for p = 0 to len - 1 do
    let k = keys.(p) in
    if k >= 0 && a.(id + k) = 0 then begin
      incr count;
      a.(id + k) <- !count
    end
  done;
  (* Key [k lxor 1] is the other node of [k]'s entity. *)
  for k = 0 to (2 * ne) - 1 do
    if a.(id + k) = 0 && a.(id + (k lxor 1)) > 0 then begin
      incr count;
      a.(id + k) <- !count
    end
  done;
  let labels = Array.make !count (Node.lock 0) and m = ref 0 in
  for e = 0 to ne - 1 do
    let l = a.(id + (2 * e)) - 1 in
    if l >= 0 then begin
      let u = a.(id + (2 * e) + 1) - 1 in
      labels.(l) <- Node.lock e;
      labels.(u) <- Node.unlock e;
      a.(2 * !m) <- l;
      a.((2 * !m) + 1) <- u;
      incr m
    end
  done;
  for p = 0 to len - 2 do
    if keys.(p) >= 0 && keys.(p + 1) >= 0 then begin
      a.(2 * !m) <- a.(id + keys.(p)) - 1;
      a.((2 * !m) + 1) <- a.(id + keys.(p + 1)) - 1;
      incr m
    end
  done;
  b.len <- 0;
  Transaction.of_arcs db labels a !m

(* Each chain's keys, then each arc as a chain of two, every chain
   ended by -1.  An arc's head is mentioned alone before the arc, so it
   is numbered before its tail: node ids of [~arcs] transactions such
   as [Gentx.guard_ring] are pinned by the tests' search digests. *)
let transaction db ?(chains = []) ?(arcs = []) () =
  let b = buffer () in
  List.iter
    (fun c ->
      List.iter (fun s -> add b (key db s)) c;
      add b (-1))
    chains;
  List.iter
    (fun (x, y) ->
      let x = key db x and y = key db y in
      List.iter (add b) [ y; -1; x; y; -1 ])
    arcs;
  compile db b

let transaction_exn db ?chains ?arcs () =
  match transaction db ?chains ?arcs () with
  | Ok t -> t
  | Error es ->
      invalid_arg
        ("Transaction.make_exn: "
        ^ String.concat "; " (List.map (Transaction.error_to_string db) es))

let total db steps =
  Transaction.of_total_order db (List.map (node_of_step db) steps)

let total_exn db steps =
  match total db steps with
  | Ok t -> t
  | Error es ->
      invalid_arg
        ("Builder.total_exn: "
        ^ String.concat "; "
            (List.map (Transaction.error_to_string db) es))

let two_phase_chain db names =
  total_exn db (List.map (fun n -> L n) names @ List.map (fun n -> U n) names)
