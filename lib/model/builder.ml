type step = L of string | U of string

let node_of_step db = function
  | L name -> Node.lock (Db.find_entity_exn db name)
  | U name -> Node.unlock (Db.find_entity_exn db name)

let key db = function
  | L name -> 2 * Db.find_entity_exn db name
  | U name -> (2 * Db.find_entity_exn db name) + 1

let number db keys len =
  let ne = Db.entity_count db in
  let id = Array.make (2 * ne) (-1) and count = ref 0 in
  for p = 0 to len - 1 do
    let k = keys.(p) in
    if k >= 0 && id.(k) < 0 then begin
      id.(k) <- !count;
      incr count
    end
  done;
  (* Key [k lxor 1] is the other node of [k]'s entity. *)
  for k = 0 to (2 * ne) - 1 do
    if id.(k) < 0 && id.(k lxor 1) >= 0 then begin
      id.(k) <- !count;
      incr count
    end
  done;
  let labels = Array.make !count (Node.lock 0) and arcs = ref [] in
  for e = 0 to ne - 1 do
    if id.(2 * e) >= 0 then begin
      labels.(id.(2 * e)) <- Node.lock e;
      labels.(id.((2 * e) + 1)) <- Node.unlock e;
      arcs := (id.(2 * e), id.((2 * e) + 1)) :: !arcs
    end
  done;
  for p = len - 2 downto 0 do
    if keys.(p) >= 0 && keys.(p + 1) >= 0 then
      arcs := (id.(keys.(p)), id.(keys.(p + 1))) :: !arcs
  done;
  (labels, !arcs)

(* Each chain's keys, then each arc as a chain of two, every chain
   ended by -1.  An arc's head is mentioned alone before the arc, so it
   is numbered before its tail: node ids of [~arcs] transactions such
   as [Gentx.guard_ring] are pinned by the tests' search digests. *)
let collect db ~chains ~arcs =
  let keys =
    Array.of_list
      (List.concat_map (fun c -> List.map (key db) c @ [ -1 ]) chains
      @ List.concat_map
          (fun (a, b) ->
            let a = key db a and b = key db b in
            [ b; -1; a; b; -1 ])
          arcs)
  in
  number db keys (Array.length keys)

let transaction db ?(chains = []) ?(arcs = []) () =
  let labels, arc_list = collect db ~chains ~arcs in
  Transaction.make db labels arc_list

let transaction_exn db ?(chains = []) ?(arcs = []) () =
  let labels, arc_list = collect db ~chains ~arcs in
  Transaction.make_exn db labels arc_list

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
