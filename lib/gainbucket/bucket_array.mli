(** Fiduccia–Mattheyses gain buckets.

    A bucket array keeps a set of cells, each with an integer gain in
    [[-max_gain, max_gain]], and answers "which unlocked cell has the
    highest gain" in amortized O(1).  Cells live in doubly linked lists
    (one per gain value) threaded through per-cell [prev]/[next] arrays.

    The insertion discipline is configurable — the paper's section 1
    lists "LIFO, FIFO gain buckets" among the classical FM parameters.
    LIFO (the default, shown best by Hagen/Huang/Kahng 1997) inserts at
    the head; FIFO appends at the tail.

    Cell identifiers are small ints (hypergraph node ids).  One bucket
    array serves one move direction; the multi-way engine keeps
    [k·(k-1)] of them (paper section 3.7). *)

type t

(** Insertion discipline for cells of equal gain. *)
type discipline =
  | Lifo  (** Most recently touched first (default). *)
  | Fifo  (** Oldest first. *)

(** [create ?discipline ~cells ~max_gain ()] makes an empty structure
    able to hold cells with ids in [0, cells) and gains in
    [[-max_gain, max_gain]].
    @raise Invalid_argument if [cells < 0] or [max_gain < 0]. *)
val create : ?discipline:discipline -> cells:int -> max_gain:int -> unit -> t

(** [mem t cell] is [true] iff [cell] is currently stored. *)
val mem : t -> int -> bool

(** [gain_of t cell] is the stored gain.
    @raise Invalid_argument if the cell is not stored. *)
val gain_of : t -> int -> int

(** [insert t cell gain] adds a cell at the head of its gain bucket.
    @raise Invalid_argument if already present or gain out of range. *)
val insert : t -> int -> int -> unit

(** [remove t cell] deletes the cell; no-op if absent. *)
val remove : t -> int -> unit

(** [update t cell gain] moves a stored cell to a new gain bucket
    (re-inserts at the head, as classical FM does on gain change). *)
val update : t -> int -> int -> unit

(** [cardinal t] is the number of stored cells. *)
val cardinal : t -> int

(** [is_empty t] is [cardinal t = 0]. *)
val is_empty : t -> bool

(** [top_gain t] is the highest gain with a non-empty bucket, if any. *)
val top_gain : t -> int option

(** [fold_top t ~limit ~init ~f] folds [f] over at most [limit] cells of
    the top non-empty bucket, head (most recently touched) first.  Used
    for bounded tie-break scans. *)
val fold_top : t -> limit:int -> init:'acc -> f:('acc -> int -> 'acc) -> 'acc

(** [iter t f] applies [f] to every stored cell (arbitrary order). *)
val iter : t -> (int -> unit) -> unit

(** [clear t] removes all cells, in O(gain range + cells present). *)
val clear : t -> unit

(** [check t] verifies list integrity (test-only, O(cells + gains)). *)
val check : t -> (unit, string) result
