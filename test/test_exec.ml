(* Fpart_exec: domain pool determinism, batch isolation, and the
   observability merge contract.

   FPART_TEST_JOBS (default 2) sets the widest pool exercised — CI runs
   the suite a second time with FPART_TEST_JOBS=4. *)

module Pool = Fpart_exec.Pool
module Batch = Fpart_exec.Batch
module Driver = Fpart.Driver
module Metrics = Fpart_obs.Metrics
module Json = Fpart_obs.Json
module Hg = Hypergraph.Hgraph
module State = Partition.State
module Tg = Fpart_testgen

let test_jobs =
  match Sys.getenv_opt "FPART_TEST_JOBS" with
  | Some s -> ( match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 2)
  | None -> 2

let circuit ?(cells = 240) ?(pads = 32) seed =
  Tg.circuit ~name:"exec" ~cells ~pads seed

(* ------------------------------------------------------------------ *)
(* Pool basics                                                        *)
(* ------------------------------------------------------------------ *)

let test_create_invalid () =
  Alcotest.check_raises "jobs = 0"
    (Invalid_argument "Fpart_exec.Pool.create: jobs < 1") (fun () ->
      ignore (Pool.create ~jobs:0))

let test_map_sequential_pool () =
  Pool.with_pool ~jobs:1 (fun pool ->
      let out = Pool.map pool (fun i x -> (i * 10) + x) [| 1; 2; 3 |] in
      Alcotest.(check (array int)) "jobs=1 map" [| 1; 12; 23 |] out)

let test_map_empty () =
  Pool.with_pool ~jobs:test_jobs (fun pool ->
      let out = Pool.map pool (fun _ x -> x) [||] in
      Alcotest.(check int) "empty input" 0 (Array.length out))

let test_map_exception_lowest_index () =
  Pool.with_pool ~jobs:test_jobs (fun pool ->
      Alcotest.check_raises "first failing index wins" (Failure "task 2")
        (fun () ->
          ignore
            (Pool.map pool
               (fun i () -> if i >= 2 then failwith (Printf.sprintf "task %d" i))
               (Array.make 6 ()))))

let test_pool_reusable_after_exception () =
  Pool.with_pool ~jobs:test_jobs (fun pool ->
      (try ignore (Pool.map pool (fun _ () -> failwith "boom") [| () |])
       with Failure _ -> ());
      let out = Pool.map pool (fun i () -> i * i) (Array.make 5 ()) in
      Alcotest.(check (array int)) "pool survives" [| 0; 1; 4; 9; 16 |] out)

let test_both () =
  Pool.with_pool ~jobs:test_jobs (fun pool ->
      let a, b = Pool.both pool (fun () -> "left") (fun () -> 42) in
      Alcotest.(check string) "fst" "left" a;
      Alcotest.(check int) "snd" 42 b)

let test_run_all () =
  Pool.with_pool ~jobs:test_jobs (fun pool ->
      let out = Pool.run_all pool [ (fun () -> 1); (fun () -> 2); (fun () -> 3) ] in
      Alcotest.(check (list int)) "run_all order" [ 1; 2; 3 ] out)

let test_nested_fork_inlines () =
  (* a task that forks again on the same pool must not deadlock — the
     inner fork degrades to inline execution on the worker *)
  Pool.with_pool ~jobs:test_jobs (fun pool ->
      let out =
        Pool.map pool
          (fun i () ->
            Array.fold_left ( + ) 0
              (Pool.map pool (fun j () -> (10 * i) + j) (Array.make 3 ())))
          (Array.make 4 ())
      in
      Alcotest.(check (array int)) "nested totals" [| 3; 33; 63; 93 |] out)

let test_map_seeded_deterministic () =
  let draw ~rng _ () = Prng.Splitmix.int rng 1_000_000 in
  let at jobs =
    Pool.with_pool ~jobs (fun pool ->
        Pool.map_seeded pool ~master_seed:99 draw (Array.make 8 ()))
  in
  let base = at 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "map_seeded jobs=%d" jobs)
        base (at jobs))
    [ 2; test_jobs ]

(* ------------------------------------------------------------------ *)
(* QCheck: map is order- and length-preserving                        *)
(* ------------------------------------------------------------------ *)

let prop_map_order =
  (* one pool shared across iterations: spawn cost is paid once and the
     property also exercises pool reuse *)
  let pool = Pool.create ~jobs:test_jobs in
  QCheck.Test.make ~count:100 ~name:"Pool.map = Array.mapi"
    QCheck.(list small_int)
    (fun xs ->
      let arr = Array.of_list xs in
      let f i x = (i * 1009) + (x * 31) in
      Pool.map pool f arr = Array.mapi f arr)

(* ------------------------------------------------------------------ *)
(* Driver.run_best determinism                                        *)
(* ------------------------------------------------------------------ *)

let jobs_config jobs = { Fpart.Config.default with jobs }

let test_run_best_deterministic () =
  let h = circuit 5 in
  let base = Driver.run_best ~config:(jobs_config 1) ~runs:4 h Device.xc2064 in
  Alcotest.(check bool) "multi-block" true (base.Driver.k > 1);
  List.iter
    (fun jobs ->
      let r = Driver.run_best ~config:(jobs_config jobs) ~runs:4 h Device.xc2064 in
      let tag fmt = Printf.sprintf fmt jobs in
      Alcotest.(check int) (tag "k jobs=%d") base.Driver.k r.Driver.k;
      Alcotest.(check bool)
        (tag "feasible jobs=%d")
        base.Driver.feasible r.Driver.feasible;
      Alcotest.(check int) (tag "cut jobs=%d") base.Driver.cut r.Driver.cut;
      Alcotest.(check int)
        (tag "total_pins jobs=%d")
        base.Driver.total_pins r.Driver.total_pins;
      Alcotest.(check (array int))
        (tag "assignment jobs=%d")
        base.Driver.assignment r.Driver.assignment)
    [ 2; 4; test_jobs ]

let test_run_best_improves_or_ties () =
  let h = circuit 6 in
  let one = Driver.run ~config:Fpart.Config.default h Device.xc2064 in
  let best =
    Driver.run_best ~config:(jobs_config test_jobs) ~runs:4 h Device.xc2064
  in
  Alcotest.(check bool) "run_best never worse" true (best.Driver.k <= one.Driver.k);
  Alcotest.(check bool) "feasible" true best.Driver.feasible;
  if best.Driver.k = one.Driver.k then
    Alcotest.(check bool) "cut not worse at equal k" true
      (best.Driver.cut <= one.Driver.cut)

let test_run_best_one_run_is_run () =
  let h = circuit ~cells:120 9 in
  let one = Driver.run ~config:Fpart.Config.default h Device.xc3042 in
  let best = Driver.run_best ~runs:1 h Device.xc3042 in
  Alcotest.(check int) "same k" one.Driver.k best.Driver.k;
  Alcotest.(check (array int)) "same assignment" one.Driver.assignment
    best.Driver.assignment

let test_run_best_invalid () =
  let h = circuit ~cells:40 ~pads:8 1 in
  Alcotest.check_raises "runs = 0"
    (Invalid_argument "Driver.run_best: runs < 1") (fun () ->
      ignore (Driver.run_best ~runs:0 h Device.xc2064));
  Alcotest.check_raises "jobs = 0"
    (Invalid_argument "Driver.run_best: jobs < 1") (fun () ->
      ignore (Driver.run_best ~config:(jobs_config 0) ~runs:2 h Device.xc2064))

let test_run_best_repeatable () =
  (* same config, same jobs: byte-identical result on repeated calls,
     for jobs = 1 and jobs = 4 *)
  let h = circuit ~cells:160 ~pads:24 8 in
  List.iter
    (fun jobs ->
      let a = Driver.run_best ~config:(jobs_config jobs) ~runs:3 h Device.xc2064 in
      let b = Driver.run_best ~config:(jobs_config jobs) ~runs:3 h Device.xc2064 in
      Alcotest.(check int) (Printf.sprintf "k repeatable jobs=%d" jobs)
        a.Driver.k b.Driver.k;
      Alcotest.(check (array int))
        (Printf.sprintf "assignment repeatable jobs=%d" jobs)
        a.Driver.assignment b.Driver.assignment)
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Metamorphic properties: relabelings must not change the metrics     *)
(* ------------------------------------------------------------------ *)

(* Transport the driver's partition through a node relabeling and check
   every metric is preserved on the relabeled graph.  (The driver is not
   re-run on the relabeled circuit: id-based tie-breaks make the full
   output only metric-equivalent, not identical, under relabeling.) *)
let check_transported_partition h r perm =
  let h' = Tg.relabel h ~perm in
  let a' = Tg.transport ~perm r.Driver.assignment in
  let st = State.create h ~k:r.Driver.k ~assign:(fun v -> r.Driver.assignment.(v)) in
  let st' = State.create h' ~k:r.Driver.k ~assign:(fun v -> a'.(v)) in
  Alcotest.(check int) "cut invariant" (State.cut_size st) (State.cut_size st');
  Alcotest.(check int) "total pins invariant" (State.total_pins st)
    (State.total_pins st');
  for b = 0 to r.Driver.k - 1 do
    Alcotest.(check int) "block size invariant" (State.size_of st b)
      (State.size_of st' b);
    Alcotest.(check int) "block pins invariant" (State.pins_of st b)
      (State.pins_of st' b);
    Alcotest.(check int) "block pads invariant" (State.pads_of st b)
      (State.pads_of st' b)
  done;
  match Fpart_check.Oracle.diff_state st' with
  | [] -> ()
  | reason :: _ -> Alcotest.failf "relabeled state inconsistent: %s" reason

let test_relabel_invariance () =
  let h = circuit ~cells:150 ~pads:20 8 in
  let r = Driver.run h Device.xc2064 in
  Alcotest.(check bool) "multi-block" true (r.Driver.k > 1);
  List.iter
    (fun pseed ->
      check_transported_partition h r (Tg.permutation ~n:(Hg.num_nodes h) pseed))
    [ 1; 2; 3 ]

let test_pad_permutation_invariance () =
  let h = circuit ~cells:120 ~pads:40 9 in
  let r = Driver.run h Device.xc2064 in
  List.iter
    (fun pseed -> check_transported_partition h r (Tg.pad_permutation h pseed))
    [ 4; 5 ]

(* ------------------------------------------------------------------ *)
(* Metrics under domains                                              *)
(* ------------------------------------------------------------------ *)

let counters_json () =
  match Metrics.report () with
  | Json.Obj fields ->
    Json.to_string (List.assoc "counters" fields)
  | _ -> Alcotest.fail "report is not an object"

let test_counters_match_sequential () =
  let h = circuit 7 in
  let measure jobs =
    Metrics.reset ();
    ignore (Driver.run_best ~config:(jobs_config jobs) ~runs:4 h Device.xc2064);
    let c = counters_json () in
    Metrics.reset ();
    c
  in
  let sequential = measure 1 in
  Alcotest.(check string) "counters jobs=N = jobs=1" sequential
    (measure test_jobs);
  Alcotest.(check string) "counters jobs=4 = jobs=1" sequential (measure 4)

(* ------------------------------------------------------------------ *)
(* Resource watermarks under domains                                  *)
(* ------------------------------------------------------------------ *)

module Resource = Fpart_obs.Resource

(* A peak only a worker domain ever observes must survive the join: Pool
   snapshots each worker's watermark and max-merges it into the caller,
   so a post-join summary reflects it regardless of jobs or task
   order. *)
let test_worker_watermark_merged () =
  List.iter
    (fun jobs ->
      Resource.reset ();
      Fun.protect
        ~finally:(fun () ->
          Resource.set_source None;
          Resource.reset ())
        (fun () ->
          (* every sample reports a distinct fake peak (an atomic tick),
             so whichever domain takes the 4th sample observes the
             maximum — installed before the pool spawns its domains *)
          let calls = Atomic.make 0 in
          Resource.set_source
            (Some
               (fun () ->
                 let n = 1 + Atomic.fetch_and_add calls 1 in
                 {
                   Resource.minor_words = 0.0;
                   promoted_words = 0.0;
                   major_words = 0.0;
                   minor_gcs = 0;
                   major_gcs = 0;
                   compactions = 0;
                   top_heap_words = 1000 * n;
                   os =
                     {
                       Resource.os_maxrss_kb = 100 * n;
                       os_utime_s = 0.0;
                       os_stime_s = 0.0;
                     };
                 }));
          Pool.with_pool ~jobs (fun pool ->
              ignore
                (Pool.map pool
                   (fun _ () -> ignore (Resource.sample ()))
                   (Array.make 4 ())));
          let w = Resource.watermark () in
          Alcotest.(check int)
            (Printf.sprintf "heap peak joined jobs=%d" jobs)
            4000 w.Resource.w_top_heap_words;
          Alcotest.(check int)
            (Printf.sprintf "rss peak joined jobs=%d" jobs)
            400 w.Resource.w_maxrss_kb))
    [ 1; 4; test_jobs ]

(* ------------------------------------------------------------------ *)
(* Batch                                                              *)
(* ------------------------------------------------------------------ *)

let test_batch_isolation () =
  Pool.with_pool ~jobs:test_jobs (fun pool ->
      let f x = if x = 13 then failwith "unlucky" else x * 2 in
      match Batch.run ~pool ~f [ 1; 13; 3 ] with
      | [ Ok 2; Error (Batch.Crashed { exn; _ }); Ok 6 ] ->
        Alcotest.(check bool) "exn text" true
          (String.length exn > 0
          && String.sub exn 0 7 = "Failure")
      | results ->
        Alcotest.failf "unexpected batch shape (%d results)"
          (List.length results))

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "create invalid" `Quick test_create_invalid;
          Alcotest.test_case "map jobs=1" `Quick test_map_sequential_pool;
          Alcotest.test_case "map empty" `Quick test_map_empty;
          Alcotest.test_case "exception lowest index" `Quick
            test_map_exception_lowest_index;
          Alcotest.test_case "reusable after exception" `Quick
            test_pool_reusable_after_exception;
          Alcotest.test_case "both" `Quick test_both;
          Alcotest.test_case "run_all" `Quick test_run_all;
          Alcotest.test_case "nested fork inlines" `Quick
            test_nested_fork_inlines;
          Alcotest.test_case "map_seeded deterministic" `Quick
            test_map_seeded_deterministic;
        ] );
      ("property", List.map QCheck_alcotest.to_alcotest [ prop_map_order ]);
      ( "driver",
        [
          Alcotest.test_case "run_best deterministic across jobs" `Slow
            test_run_best_deterministic;
          Alcotest.test_case "run_best improves or ties" `Slow
            test_run_best_improves_or_ties;
          Alcotest.test_case "run_best invalid args" `Quick
            test_run_best_invalid;
          Alcotest.test_case "run_best repeatable at jobs 1 and 4" `Slow
            test_run_best_repeatable;
          Alcotest.test_case "counters match sequential" `Slow
            test_counters_match_sequential;
          Alcotest.test_case "run_best one run is run" `Quick
            test_run_best_one_run_is_run;
        ] );
      ( "metamorphic",
        [
          Alcotest.test_case "relabeling invariance" `Quick test_relabel_invariance;
          Alcotest.test_case "pad permutation invariance" `Quick
            test_pad_permutation_invariance;
        ] );
      ( "resource",
        [
          Alcotest.test_case "worker watermark merged at join" `Quick
            test_worker_watermark_merged;
        ] );
      ( "batch",
        [
          Alcotest.test_case "exception isolation" `Quick test_batch_isolation;
        ] );
    ]
