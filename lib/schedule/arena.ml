(* Flat state table: rows of [words] ints in one array, ids dense in
   insertion order.  [slots] is a power-of-two array of ids (-1 when
   empty), resized at load 1/2; [data] holds row [id] at [id * words]
   and doubles when full.  Not thread-safe. *)

type t = {
  mutable words : int;
  mutable data : int array;
  mutable slots : int array;
  mutable len : int;
}

let initial_rows = 64

let create ~words =
  {
    words;
    data = Array.make (initial_rows * words) 0;
    slots = Array.make (2 * initial_rows) (-1);
    len = 0;
  }

let count t = t.len
let data t = t.data

(* The splitmix64 finalizer with multipliers cut to 62 bits. *)
let mix h =
  let h = (h lxor (h lsr 30)) * 0x3f58476d1ce4e5b9 in
  let h = (h lxor (h lsr 27)) * 0x14d049bb133111eb in
  h lxor (h lsr 31)

let hash a o words =
  let h = ref 0 in
  for k = 0 to words - 1 do
    h := mix (!h + a.(o + k))
  done;
  !h land max_int

let rec row_equal a o row k words =
  k >= words || (a.(o + k) = row.(k) && row_equal a o row (k + 1) words)

(* The slot holding the id of the row equal to [row], or the empty slot
   where it would go. *)
let rec probe t row i =
  let id = t.slots.(i) in
  if id < 0 || row_equal t.data (id * t.words) row 0 t.words then i
  else probe t row ((i + 1) land (Array.length t.slots - 1))

let slot_of t row =
  probe t row (hash row 0 t.words land (Array.length t.slots - 1))
let find t row = t.slots.(slot_of t row)

let rec free_slot slots i =
  if slots.(i) < 0 then i
  else free_slot slots ((i + 1) land (Array.length slots - 1))

let grow_slots t =
  let slots = Array.make (2 * Array.length t.slots) (-1) in
  let mask = Array.length slots - 1 in
  for id = 0 to t.len - 1 do
    slots.(free_slot slots (hash t.data (id * t.words) t.words land mask)) <- id
  done;
  t.slots <- slots

let grow_data t =
  let data =
    Array.make (max (2 * Array.length t.data) (initial_rows * t.words)) 0
  in
  Array.blit t.data 0 data 0 (t.len * t.words);
  t.data <- data

let add t ~limit row =
  let i = slot_of t row in
  let id = t.slots.(i) in
  if id >= 0 then id
  else if t.len >= limit then -1
  else begin
    let id = t.len and w = t.words in
    if (id + 1) * w > Array.length t.data then grow_data t;
    let o = id * w in
    for k = 0 to w - 1 do
      t.data.(o + k) <- row.(k)
    done;
    t.len <- id + 1;
    if 2 * t.len > Array.length t.slots then grow_slots t
    else t.slots.(i) <- id;
    id
  end

(* Row [id]'s slot: the first on its probe path that holds [id].  Ids
   are never removed, so every slot before it on the path holds a
   lower id; an empty slot means the id was never slotted. *)
let rec unslot t id i =
  let s = t.slots.(i) in
  if s = id then t.slots.(i) <- -1
  else if s >= 0 then unslot t id ((i + 1) land (Array.length t.slots - 1))

let reset t ~words =
  let n = Array.length t.slots in
  if 4 * t.len >= n then Array.fill t.slots 0 n (-1)
  else
    (* Highest id first: the lower ids on each probe path are still
       there when it is cleared. *)
    for id = t.len - 1 downto 0 do
      unslot t id (hash t.data (id * t.words) t.words land (n - 1))
    done;
  t.words <- words;
  t.len <- 0
