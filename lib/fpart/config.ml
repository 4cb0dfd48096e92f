type refiner = Sanchis_refiner | Hybrid_refiner
type engine = Flat | Mlevel

let refiners = [ ("sanchis", Sanchis_refiner); ("hybrid", Hybrid_refiner) ]
let engines = [ ("flat", Flat); ("mlevel", Mlevel) ]
let name_in table v = fst (List.find (fun (_, v') -> v' = v) table)
let refiner_name = name_in refiners
let engine_name = name_in engines
let refiner_of_string s = List.assoc_opt s refiners

(* The published values no experiment varies (section 4). *)
let sigma1 = 0.5
let sigma2 = 0.5
let n_small = 15
let eps_max_multi = 1.05
let eps_max_two = 1.05
let eps_min_multi = 0.3

type t = {
  delta : float option;
  cost : Partition.Cost.params;
  eps_min_two : float;
  stack_depth : int;
  max_passes : int;
  gain_levels : int;
  bucket_discipline : Gainbucket.Bucket_array.discipline;
  gain_mode : Sanchis.gain_mode;
  drift_limit : int option;
  random_initial : bool;
  cluster_size : int option;
  refiner : refiner;
  engine : engine;
  runs : int;
  seed : int;
  jobs : int;
  selfcheck : Fpart_check.Selfcheck.level;
}

let default =
  {
    delta = None;
    cost = Partition.Cost.default_params;
    eps_min_two = 0.95;
    stack_depth = 4;
    max_passes = 8;
    gain_levels = 2;
    bucket_discipline = Gainbucket.Bucket_array.Lifo;
    gain_mode = Sanchis.Cut_gain;
    drift_limit = None;
    random_initial = false;
    cluster_size = None;
    refiner = Sanchis_refiner;
    engine = Flat;
    runs = 1;
    seed = 0x5eed;
    jobs = 1;
    selfcheck = Fpart_check.Selfcheck.Off;
  }

let delta_for t device =
  match t.delta with Some d -> d | None -> Device.paper_delta device

let sanchis t =
  let module Selfcheck = Fpart_check.Selfcheck in
  let paranoid = Selfcheck.at_least t.selfcheck Selfcheck.Paranoid in
  let pin = t.gain_mode = Sanchis.Pin_gain in
  {
    Sanchis.gain_levels = t.gain_levels;
    max_passes = t.max_passes;
    stack_depth = t.stack_depth;
    gain_mode = t.gain_mode;
    drift_limit = t.drift_limit;
    bucket_discipline = t.bucket_discipline;
    tie_salt = t.seed land 0xFFFF;
    on_move =
      (if paranoid then
         Some (fun st -> ignore (Selfcheck.validate ~where:"sanchis.move" st))
       else None);
    on_gain_update =
      (if paranoid then
         Some
           (fun st ~cell ~target ~gain ->
             ignore
               (Selfcheck.validate_gain ~where:"sanchis.gain" st ~pin ~cell
                  ~target ~gain))
       else None);
  }

let flow t = { Flow.Refine.default_config with max_passes = min 4 t.max_passes }

let free_space ~s_max ~t_max ~size ~pins =
  (sigma1 *. (float_of_int (s_max - size) /. float_of_int s_max))
  +. (sigma2 *. (float_of_int (t_max - pins) /. float_of_int t_max))

(* Canonical configuration digest: every field that can change the
   partitioning result, rendered to a fixed textual form and hashed.
   This is the producer behind the [config_digest] field of run-ledger
   entries and serve responses; [?extra] lets a caller fold in knobs
   living outside this record (the CLI's baseline algorithm). *)
let digest ?(extra = "") t =
  let b = Buffer.create 256 in
  let f name v = Buffer.add_string b (Printf.sprintf "%s=%.9g;" name v) in
  let i name v = Buffer.add_string b (Printf.sprintf "%s=%d;" name v) in
  let s name v = Buffer.add_string b (Printf.sprintf "%s=%s;" name v) in
  s "schema" "fpart-config/3";
  (match t.delta with Some d -> f "delta" d | None -> s "delta" "paper");
  f "lambda_s" t.cost.Partition.Cost.lambda_s;
  f "lambda_t" t.cost.Partition.Cost.lambda_t;
  f "lambda_r" t.cost.Partition.Cost.lambda_r;
  f "lambda_f" t.cost.Partition.Cost.lambda_f;
  f "eps_min_two" t.eps_min_two;
  i "stack_depth" t.stack_depth;
  i "max_passes" t.max_passes;
  i "gain_levels" t.gain_levels;
  s "bucket"
    (match t.bucket_discipline with
    | Gainbucket.Bucket_array.Lifo -> "lifo"
    | Gainbucket.Bucket_array.Fifo -> "fifo");
  s "gain_mode"
    (match t.gain_mode with Sanchis.Cut_gain -> "cut" | Sanchis.Pin_gain -> "pin");
  (match t.drift_limit with Some d -> i "drift_limit" d | None -> s "drift_limit" "off");
  s "random_initial" (string_of_bool t.random_initial);
  (match t.cluster_size with Some c -> i "cluster" c | None -> s "cluster" "off");
  s "refiner" (refiner_name t.refiner);
  s "engine" (engine_name t.engine);
  i "runs" t.runs;
  i "seed" t.seed;
  if extra <> "" then s "extra" extra;
  (* jobs and selfcheck deliberately excluded: both are documented to
     never change the produced partition, so two runs differing only
     there are the same workload to the trend analysis. *)
  Digest.to_hex (Digest.string (Buffer.contents b))
