(** Block selection for the improvement schedule (paper section 3.1).

    After the pair pass on the two lately created blocks, the remainder
    is improved against: the committed block of smallest size
    [P_MIN_size], the one with fewest terminals [P_MIN_IO], and the one
    with most free space [P_MIN_F], where free space mixes both
    resources: [F = σ1·(S_MAX-S_i)/S_MAX + σ2·(T_MAX-|Y_i|)/T_MAX]. *)

(** [min_size_block st ~except] is the non-[except] block of smallest
    logic size, or [None] when there is no other block. *)
val min_size_block : Partition.State.t -> except:int -> int option

(** [min_io_block st ~except] is the non-[except] block with the fewest
    terminals. *)
val min_io_block : Partition.State.t -> except:int -> int option

(** [max_free_block st ~except ~s_max ~t_max] is the non-[except]
    block with the largest free-space estimate [F]. *)
val max_free_block :
  Partition.State.t -> except:int -> s_max:int -> t_max:int -> int option
