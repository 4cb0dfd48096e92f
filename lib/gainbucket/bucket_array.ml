(* Doubly linked gain buckets.  [head.(g + max_gain)] is the first cell of
   bucket [g] or -1.  [prev.(c)] is the predecessor cell or -1 when [c] is
   a bucket head; [next.(c)] the successor or -1.  [gain.(c)] is only
   meaningful when [present.(c)]. *)

(* Always-on workload counters (plain int increments, see Fpart_obs).
   "scans" counts fold_top calls, "scanned_cells" the cells they
   visited, "settle_steps" the empty buckets skipped while lowering
   [top] — together they expose how much bucket-walking a pass pays. *)
module Obs = Fpart_obs.Metrics

let c_inserts = Obs.counter "bucket.inserts"
let c_removes = Obs.counter "bucket.removes"
let c_updates = Obs.counter "bucket.updates"
let c_clears = Obs.counter "bucket.clears"
let c_scans = Obs.counter "bucket.scans"
let c_scanned = Obs.counter "bucket.scanned_cells"
let c_settle = Obs.counter "bucket.settle_steps"

type discipline = Lifo | Fifo

type t = {
  discipline : discipline;
  max_gain : int;
  head : int array;
  tail : int array;
  prev : int array;
  next : int array;
  gain : int array;
  present : bool array;
  mutable count : int;
  mutable top : int; (* upper bound on the highest non-empty bucket index *)
}

let create ?(discipline = Lifo) ~cells ~max_gain () =
  if cells < 0 then invalid_arg "Bucket_array.create: cells < 0";
  if max_gain < 0 then invalid_arg "Bucket_array.create: max_gain < 0";
  {
    discipline;
    max_gain;
    head = Array.make ((2 * max_gain) + 1) (-1);
    tail = Array.make ((2 * max_gain) + 1) (-1);
    prev = Array.make cells (-1);
    next = Array.make cells (-1);
    gain = Array.make cells 0;
    present = Array.make cells false;
    count = 0;
    top = -1;
  }

let mem t cell = t.present.(cell)

let gain_of t cell =
  if not t.present.(cell) then invalid_arg "Bucket_array.gain_of: absent cell";
  t.gain.(cell)

let bucket_index t g = g + t.max_gain

(* Raw link/unlink: the list surgery shared by insert/remove/update.
   Workload counters live in the public operations only, so an update is
   one [bucket.updates] tick — not a phantom insert + remove pair. *)
let link t cell g =
  let i = bucket_index t g in
  (match t.discipline with
  | Lifo ->
    let old_head = t.head.(i) in
    t.head.(i) <- cell;
    t.prev.(cell) <- -1;
    t.next.(cell) <- old_head;
    if old_head >= 0 then t.prev.(old_head) <- cell
    else t.tail.(i) <- cell
  | Fifo ->
    let old_tail = t.tail.(i) in
    t.tail.(i) <- cell;
    t.next.(cell) <- -1;
    t.prev.(cell) <- old_tail;
    if old_tail >= 0 then t.next.(old_tail) <- cell
    else t.head.(i) <- cell);
  t.gain.(cell) <- g;
  t.present.(cell) <- true;
  if i > t.top then t.top <- i

let unlink t cell =
  let p = t.prev.(cell) and n = t.next.(cell) in
  let i = bucket_index t t.gain.(cell) in
  if p >= 0 then t.next.(p) <- n else t.head.(i) <- n;
  if n >= 0 then t.prev.(n) <- p else t.tail.(i) <- p;
  t.present.(cell) <- false;
  t.prev.(cell) <- -1;
  t.next.(cell) <- -1

let insert t cell g =
  if t.present.(cell) then invalid_arg "Bucket_array.insert: cell already present";
  if g < -t.max_gain || g > t.max_gain then
    invalid_arg "Bucket_array.insert: gain out of range";
  link t cell g;
  t.count <- t.count + 1;
  Obs.incr c_inserts

let remove t cell =
  if t.present.(cell) then begin
    unlink t cell;
    t.count <- t.count - 1;
    Obs.incr c_removes
  end

let update t cell g =
  if not t.present.(cell) then invalid_arg "Bucket_array.update: absent cell";
  if g <> t.gain.(cell) then begin
    if g < -t.max_gain || g > t.max_gain then
      invalid_arg "Bucket_array.update: gain out of range";
    Obs.incr c_updates;
    unlink t cell;
    link t cell g
  end

let cardinal t = t.count

let is_empty t = t.count = 0

(* Lower [top] until it points at a non-empty bucket. *)
let settle_top t =
  if t.count = 0 then t.top <- -1
  else begin
    while t.top >= 0 && t.head.(t.top) < 0 do
      Obs.incr c_settle;
      t.top <- t.top - 1
    done
  end

let top_gain t =
  settle_top t;
  if t.top < 0 then None else Some (t.top - t.max_gain)

let fold_top t ~limit ~init ~f =
  settle_top t;
  if t.top < 0 then init
  else begin
    Obs.incr c_scans;
    let acc = ref init in
    let cell = ref t.head.(t.top) in
    let n = ref 0 in
    while !cell >= 0 && !n < limit do
      acc := f !acc !cell;
      cell := t.next.(!cell);
      incr n
    done;
    Obs.add c_scanned !n;
    !acc
  end

let iter t f =
  Array.iteri (fun c p -> if p then f c) t.present

(* Unlink by walking the lists rather than refilling the per-cell
   arrays: every bucket above [top] is already empty, so this costs
   O(gain range + cells present), not O(cells). *)
let clear t =
  Obs.incr c_clears;
  for i = 0 to t.top do
    let cell = ref t.head.(i) in
    while !cell >= 0 do
      let c = !cell in
      cell := t.next.(c);
      t.present.(c) <- false;
      t.prev.(c) <- -1;
      t.next.(c) <- -1
    done;
    t.head.(i) <- -1;
    t.tail.(i) <- -1
  done;
  t.count <- 0;
  t.top <- -1

let check t =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  let seen = ref 0 in
  let result = ref (Ok ()) in
  Array.iteri
    (fun i h ->
      if !result = Ok () && h >= 0 then begin
        let g = i - t.max_gain in
        let rec walk prev cell steps =
          if !result <> Ok () then ()
          else if steps > Array.length t.present then
            result := fail "cycle detected in bucket %d" g
          else if cell >= 0 then begin
            if not t.present.(cell) then result := fail "absent cell %d linked" cell
            else if t.gain.(cell) <> g then
              result := fail "cell %d in bucket %d but gain %d" cell g t.gain.(cell)
            else if t.prev.(cell) <> prev then
              result := fail "bad prev link at cell %d" cell
            else begin
              incr seen;
              walk cell t.next.(cell) (steps + 1)
            end
          end
        in
        walk (-1) h 0
      end)
    t.head;
  match !result with
  | Error _ as e -> e
  | Ok () ->
    if !seen <> t.count then fail "count %d but %d cells linked" t.count !seen
    else Ok ()
