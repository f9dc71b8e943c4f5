(* Slot [i] of the heap is ([keys.{i}], [seqs.(i)], [values.(i)]);
   [values] is allocated on the first push, filled with that value. *)
type 'a t = {
  mutable keys : Float.Array.t;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable len : int;
  mutable next : int;
}

let create () =
  { keys = Float.Array.create 0; seqs = [||]; values = [||]; len = 0; next = 0 }

let is_empty q = q.len = 0
let size q = q.len

let less q i j =
  let ki = Float.Array.unsafe_get q.keys i
  and kj = Float.Array.unsafe_get q.keys j in
  ki < kj || (ki = kj && Array.unsafe_get q.seqs i < Array.unsafe_get q.seqs j)

let set q i key seq value =
  Float.Array.unsafe_set q.keys i key;
  Array.unsafe_set q.seqs i seq;
  Array.unsafe_set q.values i value

let move q ~src ~dst =
  set q dst
    (Float.Array.unsafe_get q.keys src)
    (Array.unsafe_get q.seqs src)
    (Array.unsafe_get q.values src)

let grow q value =
  let cap = max 16 (2 * q.len) in
  let keys = Float.Array.create cap and seqs = Array.make cap 0 in
  let values = Array.make cap value in
  Float.Array.blit q.keys 0 keys 0 q.len;
  Array.blit q.seqs 0 seqs 0 q.len;
  Array.blit q.values 0 values 0 q.len;
  q.keys <- keys;
  q.seqs <- seqs;
  q.values <- values

(* Sift the hole at [i] up past every parent larger than (key, seq);
   returns where the entry belongs. *)
let rec hole_up q i key seq =
  if i = 0 then 0
  else
    let p = (i - 1) / 2 in
    let kp = Float.Array.unsafe_get q.keys p in
    if key < kp || (key = kp && seq < Array.unsafe_get q.seqs p) then begin
      move q ~src:p ~dst:i;
      hole_up q p key seq
    end
    else i

let push q key value =
  if q.len = Array.length q.seqs then grow q value;
  let seq = q.next in
  q.next <- seq + 1;
  let i = hole_up q q.len key seq in
  set q i key seq value;
  q.len <- q.len + 1

(* Sift the entry at [i] down to its place among the first [q.len]. *)
let rec down q i =
  let l = (2 * i) + 1 in
  if l < q.len then begin
    let r = l + 1 in
    let m = if less q l i then l else i in
    let m = if r < q.len && less q r m then r else m in
    if m <> i then begin
      let key = Float.Array.unsafe_get q.keys i
      and seq = Array.unsafe_get q.seqs i
      and value = Array.unsafe_get q.values i in
      move q ~src:m ~dst:i;
      set q m key seq value;
      down q m
    end
  end

let min_key q =
  if q.len = 0 then invalid_arg "Pqueue.min_key: empty queue";
  Float.Array.unsafe_get q.keys 0

let take q =
  if q.len = 0 then invalid_arg "Pqueue.take: empty queue";
  let top = Array.unsafe_get q.values 0 in
  let last = q.len - 1 in
  q.len <- last;
  if last > 0 then begin
    move q ~src:last ~dst:0;
    down q 0
  end;
  top
