type pass_kind =
  | Pair_latest
  | All_blocks
  | Min_size
  | Min_io
  | Max_free
  | Final_pairs

type event =
  | Bipartition of { iteration : int; p_block : int; r_block : int; method_used : string }
  | Improve of {
      iteration : int;
      kind : pass_kind;
      blocks : int list;
      value : Partition.Cost.value;
      passes : int;
      moves : int;
      restarts : int;
    }
  | Committed of { iteration : int; block : int; size : int; pins : int }
  | Done of { iterations : int; k : int; feasible : bool }

type t = { mutable rev_events : event list }

let create () = { rev_events = [] }

let kind_name = function
  | Pair_latest -> "pair_latest"
  | All_blocks -> "all_blocks"
  | Min_size -> "min_size"
  | Min_io -> "min_io"
  | Max_free -> "max_free"
  | Final_pairs -> "final_pairs"

let record t e = t.rev_events <- e :: t.rev_events
let events t = List.rev t.rev_events

let pp_kind ppf = function
  | Pair_latest -> Format.pp_print_string ppf "pair(R,P)"
  | All_blocks -> Format.pp_print_string ppf "all-blocks"
  | Min_size -> Format.pp_print_string ppf "min-size"
  | Min_io -> Format.pp_print_string ppf "min-io"
  | Max_free -> Format.pp_print_string ppf "max-free"
  | Final_pairs -> Format.pp_print_string ppf "final-pairs"

let pp_blocks ppf blocks =
  Format.fprintf ppf "{%s}" (String.concat "," (List.map string_of_int blocks))

let pp_event ppf = function
  | Bipartition { iteration; p_block; r_block; method_used } ->
    Format.fprintf ppf "it%-3d bipartition -> P=%d R=%d (%s)" iteration p_block
      r_block method_used
  | Improve { iteration; kind; blocks; value; passes; moves; restarts } ->
    Format.fprintf ppf "it%-3d improve %a %a %a [%d passes, %d moves, %d restarts]"
      iteration pp_kind kind pp_blocks blocks Partition.Cost.pp_value value passes
      moves restarts
  | Committed { iteration; block; size; pins } ->
    Format.fprintf ppf "it%-3d committed block %d (size=%d pins=%d)" iteration block
      size pins
  | Done { iterations; k; feasible } ->
    Format.fprintf ppf "done after %d iterations: k=%d feasible=%b" iterations k
      feasible
