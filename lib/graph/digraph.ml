type t = { n : int; succ : int array array; pred : int array array; m : int }

(* Sorts [a] in place by insertion and drops repeats, copying it only
   when it had some.  Rows are short, and a row whose edges came in
   consed order is already sorted (see [fill]), so the sort is one
   pass over it. *)
let sort_dedup a =
  let n = Array.length a in
  for i = 1 to n - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done;
  let k = ref (min n 1) in
  for i = 1 to n - 1 do
    if a.(i) <> a.(!k - 1) then begin
      a.(!k) <- a.(i);
      incr k
    end
  done;
  if !k = n then a else Array.sub a 0 !k

let rec count n out_cnt in_cnt = function
  | [] -> ()
  | (u, v) :: rest ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Digraph.create: node out of range";
      out_cnt.(u) <- out_cnt.(u) + 1;
      in_cnt.(v) <- in_cnt.(v) + 1;
      count n out_cnt in_cnt rest

(* Fills each row from its end, so a row whose edges were consed in
   ascending order comes out sorted. *)
let rec fill succ pred out_cnt in_cnt = function
  | [] -> ()
  | (u, v) :: rest ->
      out_cnt.(u) <- out_cnt.(u) - 1;
      succ.(u).(out_cnt.(u)) <- v;
      in_cnt.(v) <- in_cnt.(v) - 1;
      pred.(v).(in_cnt.(v)) <- u;
      fill succ pred out_cnt in_cnt rest

(* Rows are filled by counting: one pass sizes them, a second fills
   them, then each is sorted and deduplicated in place. *)
let build n edges =
  let out_cnt = Array.make n 0 and in_cnt = Array.make n 0 in
  count n out_cnt in_cnt edges;
  let succ = Array.make n [||] and pred = Array.make n [||] in
  for u = 0 to n - 1 do
    succ.(u) <- Array.make out_cnt.(u) 0;
    pred.(u) <- Array.make in_cnt.(u) 0
  done;
  fill succ pred out_cnt in_cnt edges;
  let m = ref 0 in
  for u = 0 to n - 1 do
    succ.(u) <- sort_dedup succ.(u);
    pred.(u) <- sort_dedup pred.(u);
    m := !m + Array.length succ.(u)
  done;
  { n; succ; pred; m = !m }

let create n edges = build n edges
let node_count t = t.n
let edge_count t = t.m
let succ t u = t.succ.(u)
let pred t u = t.pred.(u)
let out_degree t u = Array.length t.succ.(u)
let in_degree t u = Array.length t.pred.(u)

let mem_sorted a x =
  let rec go lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) = x then true
      else if a.(mid) < x then go (mid + 1) hi
      else go lo mid
  in
  go 0 (Array.length a)

let mem_edge t u v = mem_sorted t.succ.(u) v

let edges t =
  let acc = ref [] in
  for u = t.n - 1 downto 0 do
    for i = Array.length t.succ.(u) - 1 downto 0 do
      acc := (u, t.succ.(u).(i)) :: !acc
    done
  done;
  !acc

let add_edges t es = build t.n (List.rev_append (edges t) es)
let transpose t = { t with succ = t.pred; pred = t.succ }

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
  (build !k !es, renum)

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
        Array.iter push t.succ.(u);
        go ()
  in
  go ();
  seen

let reachable t src = reachable_from_set t [ src ]

let pp ppf t =
  Format.fprintf ppf "@[<v>digraph(%d nodes, %d edges)" t.n t.m;
  List.iter (fun (u, v) -> Format.fprintf ppf "@,%d -> %d" u v) (edges t);
  Format.fprintf ppf "@]"
