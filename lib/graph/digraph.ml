(* Compressed sparse rows in one int array [a]: the successors of [u]
   are [a.(a.(s + u)) .. a.(a.(s + u + 1) - 1)], its predecessors
   likewise from [p]. *)
type t = { n : int; m : int; a : int array; s : int; p : int }

let words n m = 2 * (n + 1 + m)

(* The successor rows at [off] (offsets) and [tgt] (targets): counting
   sizes the rows, a second pass fills them in arc order, then each row
   is sorted by insertion (rows are short and mostly sorted) and its
   repeats dropped, compacting the rows towards [tgt].  Returns the
   number of distinct arcs. *)
let fill_succ a off tgt n arcs m =
  for u = 0 to n do
    a.(off + u) <- 0
  done;
  for k = 0 to m - 1 do
    let u = arcs.(2 * k) and v = arcs.((2 * k) + 1) in
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid_arg "Digraph.create: node out of range";
    a.(off + u + 1) <- a.(off + u + 1) + 1
  done;
  a.(off) <- tgt;
  for u = 1 to n do
    a.(off + u) <- a.(off + u) + a.(off + u - 1)
  done;
  for k = 0 to m - 1 do
    let u = arcs.(2 * k) in
    a.(a.(off + u)) <- arcs.((2 * k) + 1);
    a.(off + u) <- a.(off + u) + 1
  done;
  (* Each cursor now holds the end of its row, the start of the next. *)
  for u = n downto 1 do
    a.(off + u) <- a.(off + u - 1)
  done;
  a.(off) <- tgt;
  let out = ref tgt in
  for u = 0 to n - 1 do
    let lo = a.(off + u) and hi = a.(off + u + 1) in
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done;
    a.(off + u) <- !out;
    for i = lo to hi - 1 do
      if i = lo || a.(i) <> a.(i - 1) then begin
        a.(!out) <- a.(i);
        incr out
      end
    done
  done;
  a.(off + n) <- !out;
  !out - tgt

(* The predecessor rows at [off] and [tgt], read off the successor rows
   at [s]: walking the tails in ascending order fills each row sorted
   and without repeats. *)
let fill_pred a off tgt n s =
  for v = 0 to n do
    a.(off + v) <- 0
  done;
  for j = a.(s) to a.(s + n) - 1 do
    let v = a.(j) in
    a.(off + v + 1) <- a.(off + v + 1) + 1
  done;
  a.(off) <- tgt;
  for v = 1 to n do
    a.(off + v) <- a.(off + v) + a.(off + v - 1)
  done;
  for u = 0 to n - 1 do
    for j = a.(s + u) to a.(s + u + 1) - 1 do
      let v = a.(j) in
      a.(a.(off + v)) <- u;
      a.(off + v) <- a.(off + v) + 1
    done
  done;
  for v = n downto 1 do
    a.(off + v) <- a.(off + v - 1)
  done;
  a.(off) <- tgt

let write ~into:a ~at:o n arcs m =
  let p = o + n + 1 + m in
  let d = fill_succ a o (o + n + 1) n arcs m in
  fill_pred a p (p + n + 1) n o;
  { n; m = d; a; s = o; p }

let buffer edges =
  let arcs = Array.make (2 * List.length edges) 0 in
  List.iteri
    (fun k (u, v) ->
      arcs.(2 * k) <- u;
      arcs.((2 * k) + 1) <- v)
    edges;
  arcs

let create n edges =
  let m = List.length edges in
  write ~into:(Array.make (words n m) 0) ~at:0 n (buffer edges) m

let node_count t = t.n
let edge_count t = t.m
let adj t = t.a
let[@inline] succ_start t u = t.a.(t.s + u)
let[@inline] succ_stop t u = t.a.(t.s + u + 1)
let[@inline] pred_start t u = t.a.(t.p + u)
let[@inline] pred_stop t u = t.a.(t.p + u + 1)
let[@inline] out_degree t u = succ_stop t u - succ_start t u
let[@inline] in_degree t u = pred_stop t u - pred_start t u
let succ t u = Array.sub t.a (succ_start t u) (out_degree t u)
let pred t u = Array.sub t.a (pred_start t u) (in_degree t u)

let iter_succ t u f =
  for j = succ_start t u to succ_stop t u - 1 do
    f t.a.(j)
  done

let iter_pred t u f =
  for j = pred_start t u to pred_stop t u - 1 do
    f t.a.(j)
  done

let mem_edge t u v =
  let a = t.a in
  let rec go lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) = v then true
      else if a.(mid) < v then go (mid + 1) hi
      else go lo mid
  in
  go (succ_start t u) (succ_stop t u)

let edges t =
  let acc = ref [] in
  for u = t.n - 1 downto 0 do
    for j = succ_stop t u - 1 downto succ_start t u do
      acc := (u, t.a.(j)) :: !acc
    done
  done;
  !acc

let add_edges t es = create t.n (List.rev_append (edges t) es)
let transpose t = { t with s = t.p; p = t.s }

let induced t keep =
  let renum = Array.make t.n (-1) in
  let k = ref 0 in
  for u = 0 to t.n - 1 do
    if keep u then begin
      renum.(u) <- !k;
      incr k
    end
  done;
  let es = ref [] in
  List.iter
    (fun (u, v) ->
      if renum.(u) >= 0 && renum.(v) >= 0 then
        es := (renum.(u), renum.(v)) :: !es)
    (edges t);
  (create !k !es, renum)

let reachable_from_set t srcs =
  let seen = Bitset.create t.n in
  let stack = ref [] in
  let push u =
    if not (Bitset.mem seen u) then begin
      Bitset.set seen u;
      stack := u :: !stack
    end
  in
  List.iter push srcs;
  let rec go () =
    match !stack with
    | [] -> ()
    | u :: rest ->
        stack := rest;
        iter_succ t u push;
        go ()
  in
  go ();
  seen

let reachable t src = reachable_from_set t [ src ]

let pp ppf t =
  Format.fprintf ppf "@[<v>digraph(%d nodes, %d edges)" t.n t.m;
  List.iter (fun (u, v) -> Format.fprintf ppf "@,%d -> %d" u v) (edges t);
  Format.fprintf ppf "@]"
