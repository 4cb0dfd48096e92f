(** Resizable vectors used by hypergraph builders.

    OCaml 5.1 has no [Dynarray]; this is the small subset the library
    needs.  ['a t] is a growable array with amortized O(1) [push]. *)

type 'a t

(** [create ()] is an empty vector. *)
val create : unit -> 'a t

(** [make n x] is a vector holding [n] copies of [x]. *)
val make : int -> 'a -> 'a t

(** [length v] is the number of elements pushed so far. *)
val length : 'a t -> int

(** [push v x] appends [x] at the end of [v]. *)
val push : 'a t -> 'a -> unit

(** [get v i] is the [i]-th element.
    @raise Invalid_argument if [i] is out of bounds. *)
val get : 'a t -> int -> 'a

(** [set v i x] replaces the [i]-th element.
    @raise Invalid_argument if [i] is out of bounds. *)
val set : 'a t -> int -> 'a -> unit

(** [to_array v] is a fresh array with the contents of [v]. *)
val to_array : 'a t -> 'a array

(** [iter f v] applies [f] to every element, in push order. *)
val iter : ('a -> unit) -> 'a t -> unit

(** [iteri f v] is [iter] with the element index. *)
val iteri : (int -> 'a -> unit) -> 'a t -> unit

(** [fold f acc v] folds [f] over the elements, in push order. *)
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

(** [clear v] removes all elements (capacity is kept). *)
val clear : 'a t -> unit

(** [truncate v n] keeps the first [n] elements (capacity is kept), so
    a caller can compact a vector in place with {!set}.
    @raise Invalid_argument unless [0 <= n <= length v]. *)
val truncate : 'a t -> int -> unit
