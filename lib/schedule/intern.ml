(* Hash-consing intern table: maps values to dense integer ids so that
   downstream structures (visited sets, parent arrays) can store ints
   and compare with [==]-style integer equality instead of re-hashing
   or re-comparing structural values.

   Open addressing with linear probing: [slots] is a power-of-two array
   of ids (-1 when empty), resized at load 1/2.  The arena holds the
   values and [hashes] each id's structural hash, both growable with
   amortized doubling; a probe compares stored hashes first and runs
   [equal] only on a match, and a resize re-slots ids from [hashes]
   without re-hashing any value.  Not thread-safe. *)

type 'a t = {
  equal : 'a -> 'a -> bool;
  hash : 'a -> int;
  mutable slots : int array;
  mutable hashes : int array;
  mutable arena : 'a array;
  mutable len : int;
  mutable hits : int;
}

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

let create ?(capacity = 16) ~equal ~hash () =
  {
    equal;
    hash;
    slots = Array.make (pow2_at_least (2 * capacity) 16) (-1);
    hashes = [||];
    arena = [||];
    len = 0;
    hits = 0;
  }

let count t = t.len
let hits t = t.hits

let get t id =
  if id < 0 || id >= t.len then invalid_arg "Intern.get: id out of range";
  t.arena.(id)

(* The slot holding the id of the value equal to [x] (hash [h]), or the
   empty slot where it would go. *)
let rec probe t x h i =
  let id = t.slots.(i) in
  if id < 0 || (t.hashes.(id) = h && t.equal t.arena.(id) x) then i
  else probe t x h ((i + 1) land (Array.length t.slots - 1))

let slot_of t x h = probe t x h (h land (Array.length t.slots - 1))

let find t x =
  let id = t.slots.(slot_of t x (t.hash x land max_int)) in
  if id < 0 then None else Some id

let rec free_slot slots i =
  if slots.(i) < 0 then i
  else free_slot slots ((i + 1) land (Array.length slots - 1))

let grow_slots t =
  let slots = Array.make (2 * Array.length t.slots) (-1) in
  let mask = Array.length slots - 1 in
  for id = 0 to t.len - 1 do
    slots.(free_slot slots (t.hashes.(id) land mask)) <- id
  done;
  t.slots <- slots

let grow_arena t x =
  let cap = Array.length t.arena in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let arena = Array.make ncap x and hashes = Array.make ncap 0 in
  Array.blit t.arena 0 arena 0 t.len;
  Array.blit t.hashes 0 hashes 0 t.len;
  t.arena <- arena;
  t.hashes <- hashes

let intern t x =
  let h = t.hash x land max_int in
  let i = slot_of t x h in
  let id = t.slots.(i) in
  if id >= 0 then begin
    t.hits <- t.hits + 1;
    (id, false)
  end
  else begin
    let id = t.len in
    if id >= Array.length t.arena then grow_arena t x;
    t.arena.(id) <- x;
    t.hashes.(id) <- h;
    t.len <- id + 1;
    if 2 * t.len > Array.length t.slots then grow_slots t
    else t.slots.(i) <- id;
    (id, true)
  end

let iter f t =
  for id = 0 to t.len - 1 do
    f t.arena.(id)
  done
