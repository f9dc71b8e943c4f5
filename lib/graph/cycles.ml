(* Tarjan's strongly-connected-components algorithm, iterative to be safe
   on deep graphs. *)
let scc g =
  let n = Digraph.node_count g in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let next_index = ref 0 in
  let comps = ref [] in
  let rec strongconnect v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack := v :: !stack;
    on_stack.(v) <- true;
    Digraph.iter_succ g v (fun w ->
        if index.(w) = -1 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w));
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            if w = v then w :: acc else pop (w :: acc)
      in
      comps := List.sort compare (pop []) :: !comps
    end
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then strongconnect v
  done;
  List.rev !comps

(* Johnson's algorithm for enumerating elementary cycles, materialized
   into a list (our graphs are small) and exposed as a Seq.

   Root [s] is the smallest node of the cycles it yields, so its search
   is confined to the strongly connected component of [s] in the
   subgraph of nodes >= s.  That component is read on [g] itself, as
   the nodes >= s that [s] reaches and that reach [s] back, by two
   stamped depth-first passes, so no subgraph is built per root.  The
   circuit search walks [g]'s own successor arrays in order, which fixes
   the order of the cycles (Theorem 4 tries its candidates in it). *)
let simple_cycles g =
  let n = Digraph.node_count g in
  let results = ref [] in
  let blocked = Array.make n false in
  let b = Array.make n [] in
  let path = ref [] in
  (* [fwd.(v) = s]: root [s] reaches [v]; [comp.(v) = s]: [v] is in the
     component of [s].  Stamps, so neither is cleared between roots. *)
  let fwd = Array.make n (-1) and comp = Array.make n (-1) in
  let stack = Array.make n 0 in
  let members = Array.make n 0 in
  let rec unblock u =
    if blocked.(u) then begin
      blocked.(u) <- false;
      let bs = b.(u) in
      b.(u) <- [];
      List.iter unblock bs
    end
  in
  for s = 0 to n - 1 do
    (* Forward pass: the nodes >= s that [s] reaches. *)
    fwd.(s) <- s;
    stack.(0) <- s;
    let top = ref 1 in
    while !top > 0 do
      decr top;
      Digraph.iter_succ g stack.(!top) (fun w ->
          if w > s && fwd.(w) <> s then begin
            fwd.(w) <- s;
            stack.(!top) <- w;
            incr top
          end)
    done;
    (* Backward pass, through reached nodes only: a node on a path back
       to [s] from a reached node is itself reached. *)
    comp.(s) <- s;
    members.(0) <- s;
    let size = ref 1 in
    stack.(0) <- s;
    top := 1;
    while !top > 0 do
      decr top;
      Digraph.iter_pred g stack.(!top) (fun w ->
          if fwd.(w) = s && comp.(w) <> s then begin
            comp.(w) <- s;
            members.(!size) <- w;
            incr size;
            stack.(!top) <- w;
            incr top
          end)
    done;
    if Digraph.mem_edge g s s then results := [ s ] :: !results;
    if !size > 1 then begin
      for i = 0 to !size - 1 do
        blocked.(members.(i)) <- false;
        b.(members.(i)) <- []
      done;
      let rec circuit v =
        let found = ref false in
        blocked.(v) <- true;
        path := v :: !path;
        Digraph.iter_succ g v (fun w ->
            if comp.(w) = s then
              if w = s then begin
                (* v = s means the s->s self loop, already counted. *)
                if v <> s then results := List.rev !path :: !results;
                found := true
              end
              else if not blocked.(w) then if circuit w then found := true);
        if !found then unblock v
        else
          Digraph.iter_succ g v (fun w ->
              if comp.(w) = s && not (List.mem v b.(w)) then
                b.(w) <- v :: b.(w));
        path := List.tl !path;
        !found
      in
      ignore (circuit s)
    end
  done;
  List.to_seq (List.rev !results)

let count_simple_cycles g = Seq.length (simple_cycles g)
