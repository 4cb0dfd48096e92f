(* Multilevel machinery: Induce extraction, exact Hgraph contraction,
   heavy-edge matching, and the V-cycle engine. *)

module Hg = Hypergraph.Hgraph
module Induce = Hypergraph.Induce
module Matching = Cluster.Matching
module Engine = Mlevel.Engine
module State = Partition.State
module Cost = Partition.Cost
module Oracle = Fpart_check.Oracle
module Selfcheck = Fpart_check.Selfcheck

let circuit ?(cells = 200) ?(pads = 24) seed =
  Netlist.Generator.generate
    (Netlist.Generator.default_spec ~name:"ml" ~cells ~pads ~seed)

(* --- Induce -------------------------------------------------------- *)

let test_induce_identity () =
  let h = circuit 1 in
  let ind = Induce.induce h ~keep:(fun _ -> true) in
  Alcotest.(check int) "same nodes" (Hg.num_nodes h) (Hg.num_nodes ind.Induce.sub);
  Alcotest.(check int) "same nets" (Hg.num_nets h) (Hg.num_nets ind.Induce.sub);
  Alcotest.(check int) "same size" (Hg.total_size h) (Hg.total_size ind.Induce.sub)

let test_induce_subset () =
  let h = circuit 2 in
  let keep v = v mod 2 = 0 in
  let ind = Induce.induce h ~keep in
  (* mappings are mutually inverse on the kept set *)
  Array.iteri
    (fun sub_v orig_v ->
      Alcotest.(check int) "roundtrip" sub_v ind.Induce.to_sub.(orig_v);
      Alcotest.(check bool) "kept" true (keep orig_v);
      (* attributes preserved *)
      Alcotest.(check int) "size" (Hg.size h orig_v) (Hg.size ind.Induce.sub sub_v);
      Alcotest.(check bool) "kind" (Hg.is_pad h orig_v) (Hg.is_pad ind.Induce.sub sub_v))
    ind.Induce.to_orig;
  Hg.iter_nodes
    (fun v -> if not (keep v) then Alcotest.(check int) "dropped" (-1) ind.Induce.to_sub.(v))
    h;
  (* induced nets have >= 2 pins and validate *)
  Alcotest.(check bool) "validates" true (Hg.validate ind.Induce.sub = Ok ());
  Hg.iter_nets
    (fun e ->
      if Hg.net_degree ind.Induce.sub e < 2 then Alcotest.fail "degenerate net kept")
    ind.Induce.sub

let test_induce_net_restriction () =
  (* a 3-pin net with one pin dropped becomes a 2-pin net *)
  let b = Hg.Builder.create () in
  let x = Hg.Builder.add_cell b ~name:"x" ~size:1 in
  let y = Hg.Builder.add_cell b ~name:"y" ~size:1 in
  let z = Hg.Builder.add_cell b ~name:"z" ~size:1 in
  ignore (Hg.Builder.add_net b ~name:"n" [ x; y; z ]);
  let h = Hg.Builder.freeze b in
  let ind = Induce.induce h ~keep:(fun v -> v <> z) in
  Alcotest.(check int) "net kept" 1 (Hg.num_nets ind.Induce.sub);
  Alcotest.(check int) "restricted degree" 2 (Hg.net_degree ind.Induce.sub 0);
  (* with two pins dropped the net disappears *)
  let ind2 = Induce.induce h ~keep:(fun v -> v = x) in
  Alcotest.(check int) "net dropped" 0 (Hg.num_nets ind2.Induce.sub)

(* --- Contraction ---------------------------------------------------- *)

(* a(2) b(1) c(3) + pad p; nets n1=abc n2=ab n3=pc n4=ac n5=p *)
let tiny () =
  let b = Hg.Builder.create () in
  let a = Hg.Builder.add_cell b ~name:"a" ~size:2 in
  let bb = Hg.Builder.add_cell b ~name:"b" ~size:1 ~flops:1 in
  let c = Hg.Builder.add_cell b ~name:"c" ~size:3 in
  let p = Hg.Builder.add_pad b ~name:"p" in
  ignore (Hg.Builder.add_net b ~name:"n1" [ a; bb; c ]);
  ignore (Hg.Builder.add_net b ~name:"n2" [ a; bb ]);
  ignore (Hg.Builder.add_net b ~name:"n3" [ p; c ]);
  ignore (Hg.Builder.add_net b ~name:"n4" [ a; c ]);
  ignore (Hg.Builder.add_net b ~name:"n5" [ p ]);
  (Hg.Builder.freeze b, (a, bb, c, p))

(* The contraction's net rule, spelled out: the fine nets with >= 2
   distinct coarse endpoints or a pad, in fine order, each as its name
   and sorted distinct endpoints. *)
let expected_nets h map =
  Hg.fold_nets
    (fun acc e ->
      let ends =
        List.sort_uniq compare (Array.to_list (Array.map (fun v -> map.(v)) (Hg.pins h e)))
      in
      if List.length ends >= 2 || Hg.net_has_pad h e then (Hg.net_name h e, ends) :: acc
      else acc)
    [] h
  |> List.rev

let nets_of coarse =
  List.init (Hg.num_nets coarse) (fun e ->
      (Hg.net_name coarse e, Array.to_list (Hg.pins coarse e)))

let test_contract_tiny () =
  let h, (a, bb, c, p) = tiny () in
  (* a,b -> 0; c -> 1; p -> 2 *)
  let map = Array.make 4 0 in
  map.(a) <- 0; map.(bb) <- 0; map.(c) <- 1; map.(p) <- 2;
  let coarse = Hg.contract h ~map ~coarse_nodes:3 in
  Alcotest.(check bool) "validates" true (Hg.validate coarse = Ok ());
  Alcotest.(check int) "nodes" 3 (Hg.num_nodes coarse);
  (* n2 = {a,b} has one coarse endpoint and no pad: dropped.
     n1 -> {0,1}, n3 -> {1,2}, n4 -> {0,1}; n5 -> {2} has one
     endpoint but touches a pad, so it is kept. *)
  Alcotest.(check (list (pair string (list int))))
    "kept nets"
    [ ("n1", [ 0; 1 ]); ("n3", [ 1; 2 ]); ("n4", [ 0; 1 ]); ("n5", [ 2 ]) ]
    (nets_of coarse);
  Alcotest.(check (array int)) "sizes" [| 3; 3; 0 |] (Array.init 3 (Hg.size coarse));
  Alcotest.(check (array int)) "flops" [| 1; 0; 0 |] (Array.init 3 (Hg.flops coarse));
  Alcotest.(check int) "pads" 1 (Hg.num_pads coarse);
  Alcotest.(check bool) "pad kept" true (Hg.is_pad coarse 2)

let test_contract_names () =
  let h, (a, bb, c, p) = tiny () in
  (* b,c -> 0 (named after b, the lower id); a -> 1; p -> 2 *)
  let map = Array.make 4 0 in
  map.(a) <- 1; map.(bb) <- 0; map.(c) <- 0; map.(p) <- 2;
  let coarse = Hg.contract h ~map ~coarse_nodes:3 in
  Alcotest.(check (list string)) "node names" [ "b"; "a"; "p" ]
    (List.init 3 (Hg.name coarse));
  Alcotest.(check (list (pair string (list int))))
    "kept nets" (expected_nets h map) (nets_of coarse);
  (* an identity map reproduces the graph *)
  let id = Hg.contract h ~map:(Array.init 4 Fun.id) ~coarse_nodes:4 in
  Alcotest.(check string) "identity digest" (Hg.digest h) (Hg.digest id)

let test_contract_rejects () =
  let h, (a, bb, c, p) = tiny () in
  let expect_invalid name map nc =
    match Hg.contract h ~map ~coarse_nodes:nc with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ()
  in
  (* pad merged with a cell *)
  let map = Array.make 4 0 in
  map.(a) <- 0; map.(bb) <- 0; map.(c) <- 1; map.(p) <- 1;
  expect_invalid "pad merge" map 2;
  (* empty coarse id *)
  let map = Array.make 4 0 in
  map.(a) <- 0; map.(bb) <- 0; map.(c) <- 0; map.(p) <- 2;
  expect_invalid "empty group" map 3;
  (* out of range *)
  let map = Array.make 4 0 in
  map.(a) <- 0; map.(bb) <- 5; map.(c) <- 1; map.(p) <- 2;
  expect_invalid "out of range" map 3;
  expect_invalid "wrong length" [| 0; 1; 2 |] 3

(* --- Matching ------------------------------------------------------ *)

let groups_of map nc =
  let g = Array.make nc [] in
  Array.iteri (fun v c -> g.(c) <- v :: g.(c)) map;
  g

let test_matching_pairs () =
  let h = circuit 21 in
  let map, nc = Matching.compute ~policy:Matching.Pairs ~max_weight:8 ~seed:3 h in
  Alcotest.(check bool) "shrinks" true (nc < Hg.num_nodes h);
  Array.iter
    (fun members ->
      match members with
      | [] -> Alcotest.fail "empty group"
      | [ _ ] -> ()
      | [ u; v ] ->
        if Hg.is_pad h u || Hg.is_pad h v then Alcotest.fail "pad matched";
        Alcotest.(check bool) "weight cap" true (Hg.size h u + Hg.size h v <= 8)
      | _ -> Alcotest.fail "group larger than a pair")
    (groups_of map nc)

let test_matching_weight_cap () =
  let h = circuit 22 in
  List.iter
    (fun policy ->
      let map, nc = Matching.compute ~policy ~max_weight:3 ~seed:9 h in
      Array.iter
        (fun members ->
          match members with
          | [ _ ] -> ()
          | ms ->
            let w = List.fold_left (fun s v -> s + Hg.size h v) 0 ms in
            Alcotest.(check bool) "cap" true (w <= 3))
        (groups_of map nc))
    [ Matching.Pairs; Matching.Agglomerate ]

let test_matching_weight_one () =
  let h = circuit 23 in
  let _, nc = Matching.compute ~policy:Matching.Pairs ~max_weight:1 ~seed:1 h in
  Alcotest.(check int) "all singletons" (Hg.num_nodes h) nc

let test_matching_deterministic () =
  let h = circuit 24 in
  let m1, n1 = Matching.compute ~policy:Matching.Agglomerate ~max_weight:6 ~seed:42 h in
  let m2, n2 = Matching.compute ~policy:Matching.Agglomerate ~max_weight:6 ~seed:42 h in
  Alcotest.(check int) "same count" n1 n2;
  Alcotest.(check (array int)) "same map" m1 m2

(* --- Engine -------------------------------------------------------- *)

let big_circuit seed = circuit ~cells:1500 ~pads:80 seed

let test_engine_end_to_end () =
  let hg = big_circuit 31 in
  let device = Device.xc3042 in
  let r = Engine.run hg device in
  let res = r.Engine.res in
  Alcotest.(check bool) "feasible" true res.Fpart.Driver.feasible;
  Alcotest.(check bool) "coarsened" true (r.Engine.levels > 0);
  Alcotest.(check bool) "ratio" true (r.Engine.coarsen_ratio > 1.0);
  Alcotest.(check bool) "k >= M" true
    (res.Fpart.Driver.k >= res.Fpart.Driver.m_lower);
  (* the reported partition really is feasible and its cut honest *)
  let k = res.Fpart.Driver.k in
  let a = res.Fpart.Driver.assignment in
  let o = Oracle.recompute hg ~k ~assign:(fun v -> a.(v)) in
  Alcotest.(check int) "cut" o.Oracle.cut res.Fpart.Driver.cut;
  let s_max = Device.s_max device ~delta:0.9 in
  for b = 0 to k - 1 do
    if o.Oracle.sizes.(b) > s_max then Alcotest.failf "block %d oversize" b;
    if o.Oracle.pins.(b) > device.Device.t_max then
      Alcotest.failf "block %d pins over" b
  done

let test_engine_jobs_identical () =
  let hg = big_circuit 32 in
  let run jobs =
    Engine.run ~base:{ Fpart.Config.default with Fpart.Config.jobs } hg
      Device.xc3042
  in
  let r1 = run 1 and r4 = run 4 in
  Alcotest.(check int) "same k" r1.Engine.res.Fpart.Driver.k
    r4.Engine.res.Fpart.Driver.k;
  Alcotest.(check int) "same cut" r1.Engine.res.Fpart.Driver.cut
    r4.Engine.res.Fpart.Driver.cut;
  Alcotest.(check (array int)) "same assignment"
    r1.Engine.res.Fpart.Driver.assignment r4.Engine.res.Fpart.Driver.assignment

(* Runs [f] with the recorder on and a memory sink; returns its value
   and the records. *)
let recorded f =
  let module Obs = Fpart_obs in
  let sink, drain = Obs.Sink.memory () in
  Obs.Metrics.reset ();
  Obs.Recorder.reset ();
  Obs.Metrics.set_enabled true;
  Obs.Sink.set sink;
  let x =
    Fun.protect
      ~finally:(fun () ->
        Obs.Metrics.set_enabled false;
        Obs.Sink.set Obs.Sink.null;
        Obs.Metrics.reset ();
        Obs.Recorder.reset ())
      f
  in
  (x, drain ())

let spans_named name records =
  let module Json = Fpart_obs.Json in
  List.filter
    (fun r -> Option.bind (Json.member "name" r) Json.str = Some name)
    records

(* each level's refinement leaves the solution value no worse, as the
   [mlevel.refine] span reports it *)
let test_engine_never_worsens () =
  let module Json = Fpart_obs.Json in
  let hg = big_circuit 33 in
  let r, records = recorded (fun () -> Engine.run hg Device.xc3042) in
  let value field span =
    let num k j =
      match Json.member k j with
      | Some (Json.Float f) -> f
      | Some (Json.Int i) -> float_of_int i
      | _ -> Alcotest.failf "%s: no %s" field k
    in
    match Json.member field span with
    | Some v ->
      {
        Cost.feasible_blocks = int_of_float (num "feasible_blocks" v);
        distance = num "distance" v;
        t_sum = int_of_float (num "t_sum" v);
        io_bal = num "io_bal" v;
      }
    | None -> Alcotest.failf "mlevel.refine span without %s" field
  in
  let refines = spans_named "mlevel.refine" records in
  Alcotest.(check bool) "coarsened" true (r.Engine.levels > 0);
  Alcotest.(check int) "one span per level" r.Engine.levels (List.length refines);
  List.iter
    (fun sp ->
      Alcotest.(check bool)
        (Printf.sprintf "level %s no worse"
           (Json.to_string (Option.get (Json.member "level" sp))))
        true
        (Cost.compare_value (value "value_after" sp) (value "value_before" sp) <= 0))
    refines

(* A traced multilevel run with the hybrid refiner writes each level
   once: one [mlevel_coarsen] record per level built and otherwise only
   spans and FM [pass] records, the last [mlevel.refine] span (the flat
   graph) ends at the result's cut, and flow pairs appear only as
   [flow.apply] spans. *)
let test_engine_one_record_per_level () =
  let module Json = Fpart_obs.Json in
  let hg = big_circuit 33 in
  let base =
    { Fpart.Config.default with Fpart.Config.refiner = Fpart.Config.Hybrid_refiner }
  in
  let r, records = recorded (fun () -> Engine.run ~base hg Device.xc3042) in
  let record_type j = Option.bind (Json.member "type" j) Json.str in
  let int_attr k j = Option.bind (Json.member k j) Json.int in
  List.iter
    (fun j ->
      match record_type j with
      | Some ("span" | "pass" | "mlevel_coarsen") -> ()
      | ty ->
        Alcotest.failf "record type %s repeats a span"
          (Option.value ty ~default:"(none)"))
    records;
  Alcotest.(check bool) "coarsened" true (r.Engine.levels > 0);
  Alcotest.(check int) "one mlevel_coarsen record per level" r.Engine.levels
    (List.length (List.filter (fun j -> record_type j = Some "mlevel_coarsen") records));
  (match List.rev (spans_named "mlevel.refine" records) with
  | last :: _ ->
    Alcotest.(check (option int)) "last level is the flat graph" (Some 0)
      (int_attr "level" last);
    Alcotest.(check (option int)) "flat nets" (Some (Hg.num_nets hg))
      (int_attr "nets" last);
    Alcotest.(check (option int)) "last cut_after is the result's cut"
      (Some r.Engine.res.Fpart.Driver.cut) (int_attr "cut_after" last)
  | [] -> Alcotest.fail "no mlevel.refine span");
  Alcotest.(check bool) "flow pairs recorded as spans" true
    (spans_named "flow.apply" records <> [])

let test_engine_no_coarsening () =
  (* 170 nodes, under the 160-node threshold plus the 20 pads:
     degenerates to the flat driver *)
  let hg = circuit ~cells:150 ~pads:20 34 in
  let r = Engine.run hg Device.xc3020 in
  Alcotest.(check int) "no levels" 0 r.Engine.levels;
  Alcotest.(check (float 0.0001)) "ratio 1" 1.0 r.Engine.coarsen_ratio;
  Alcotest.(check bool) "feasible" true r.Engine.res.Fpart.Driver.feasible

let test_engine_selfcheck_clean () =
  let hg = big_circuit 36 in
  let before = Selfcheck.violations_seen () in
  let base =
    { Fpart.Config.default with Fpart.Config.selfcheck = Selfcheck.Cheap }
  in
  let r = Engine.run ~base hg Device.xc3042 in
  Alcotest.(check bool) "feasible" true r.Engine.res.Fpart.Driver.feasible;
  Alcotest.(check int) "no violations" before (Selfcheck.violations_seen ())

let test_rent_spec () =
  let spec = Netlist.Generator.rent_spec ~name:"r" ~cells:500 ~seed:1 in
  Alcotest.(check int) "rent pads" 68 spec.Netlist.Generator.pads;
  let h = Netlist.Generator.generate spec in
  Alcotest.(check int) "cells" 500 (Hg.num_cells h);
  Alcotest.(check int) "pads" 68 (Hg.num_pads h);
  Alcotest.(check bool) "validates" true (Hg.validate h = Ok ())

(* --- Solve ---------------------------------------------------------- *)

let same_result what (a : Fpart.Driver.result) (b : Fpart.Driver.result) =
  Alcotest.(check int) (what ^ ": k") a.Fpart.Driver.k b.Fpart.Driver.k;
  Alcotest.(check int) (what ^ ": cut") a.Fpart.Driver.cut b.Fpart.Driver.cut;
  Alcotest.(check (array int)) (what ^ ": assignment")
    a.Fpart.Driver.assignment b.Fpart.Driver.assignment

(* [Flat] at one run and one job is exactly the flat driver *)
let test_solve_flat_is_driver () =
  let hg = circuit ~cells:300 ~pads:30 37 in
  let config = Fpart.Config.default in
  same_result "flat"
    (Fpart.Driver.run ~config hg Device.xc3020)
    (Solve.run config hg Device.xc3020)

(* [Mlevel] is the V-cycle engine run on the same base config *)
let test_solve_mlevel_is_engine () =
  let hg = circuit ~cells:600 ~pads:50 38 in
  let config =
    { Fpart.Config.default with Fpart.Config.engine = Fpart.Config.Mlevel }
  in
  let r = Engine.run ~base:config hg Device.xc3042 in
  Alcotest.(check bool) "coarsened" true (r.Engine.levels > 0);
  same_result "mlevel" r.Engine.res (Solve.run config hg Device.xc3042)

(* the coarsest graph gets [max 3 runs] starts, as the [mlevel.initial]
   span reports; below three, [runs] changes nothing *)
let test_engine_coarse_starts_floor () =
  let hg = circuit ~cells:600 ~pads:50 39 in
  let solve runs =
    let res, records =
      recorded (fun () ->
          Solve.run
            { Fpart.Config.default with
              Fpart.Config.engine = Fpart.Config.Mlevel;
              runs }
            hg Device.xc3042)
    in
    match spans_named "mlevel.initial" records with
    | [ r ] -> (res, Option.bind (Fpart_obs.Json.member "runs" r) Fpart_obs.Json.int)
    | rs -> Alcotest.failf "expected 1 mlevel.initial span, got %d" (List.length rs)
  in
  let r1, starts1 = solve 1 in
  let r2, starts2 = solve 2 in
  let _, starts4 = solve 4 in
  Alcotest.(check bool) "feasible" true r1.Fpart.Driver.feasible;
  Alcotest.(check (option int)) "runs 1: three starts" (Some 3) starts1;
  Alcotest.(check (option int)) "runs 2: three starts" (Some 3) starts2;
  Alcotest.(check (option int)) "runs 4: four starts" (Some 4) starts4;
  same_result "runs 2" r1 r2

(* --- Properties ---------------------------------------------------- *)

(* coarsen ∘ uncoarsen is exact: the coarse graph validates, weights
   are conserved, the kept nets follow the contraction's net rule, and
   the coarse aggregates of any partition equal the flat aggregates of
   its projection. *)
let prop_contract_exact =
  QCheck.Test.make ~count:12 ~name:"contraction is exact"
    QCheck.(pair (int_range 100 400) (int_range 0 1000))
    (fun (cells, seed) ->
      let hg = circuit ~cells ~pads:(max 4 (cells / 10)) seed in
      let map, nc =
        Matching.compute ~policy:Matching.Pairs ~max_weight:8 ~seed hg
      in
      let coarse = Hg.contract hg ~map ~coarse_nodes:nc in
      Hg.validate coarse = Ok ()
      && Hg.total_size coarse = Hg.total_size hg
      && Hg.total_flops coarse = Hg.total_flops hg
      && Hg.num_pads coarse = Hg.num_pads hg
      && nets_of coarse = expected_nets hg map
      &&
      (* arbitrary 3-way coarse partition; aggregates must project *)
      let k = 3 in
      let coarse_assign = Array.init nc (fun c -> c mod k) in
      let flat = Array.map (fun c -> coarse_assign.(c)) map in
      let oc = Oracle.recompute coarse ~k ~assign:(fun c -> coarse_assign.(c)) in
      let off = Oracle.recompute hg ~k ~assign:(fun v -> flat.(v)) in
      oc.Oracle.cut = off.Oracle.cut
      && oc.Oracle.sizes = off.Oracle.sizes
      && oc.Oracle.pins = off.Oracle.pins
      && oc.Oracle.flops = off.Oracle.flops)

let () =
  Alcotest.run "mlevel"
    [
      ( "induce",
        [
          Alcotest.test_case "identity" `Quick test_induce_identity;
          Alcotest.test_case "subset" `Quick test_induce_subset;
          Alcotest.test_case "net restriction" `Quick test_induce_net_restriction;
        ] );
      ( "contract",
        [
          Alcotest.test_case "tiny" `Quick test_contract_tiny;
          Alcotest.test_case "names" `Quick test_contract_names;
          Alcotest.test_case "rejects" `Quick test_contract_rejects;
        ] );
      ( "matching",
        [
          Alcotest.test_case "pairs" `Quick test_matching_pairs;
          Alcotest.test_case "weight cap" `Quick test_matching_weight_cap;
          Alcotest.test_case "weight one" `Quick test_matching_weight_one;
          Alcotest.test_case "deterministic" `Quick test_matching_deterministic;
        ] );
      ( "engine",
        [
          Alcotest.test_case "end to end" `Quick test_engine_end_to_end;
          Alcotest.test_case "jobs identical" `Quick test_engine_jobs_identical;
          Alcotest.test_case "never worsens" `Quick test_engine_never_worsens;
          Alcotest.test_case "one record per level" `Quick
            test_engine_one_record_per_level;
          Alcotest.test_case "no coarsening" `Quick test_engine_no_coarsening;
          Alcotest.test_case "coarse starts floor" `Quick
            test_engine_coarse_starts_floor;
          Alcotest.test_case "selfcheck clean" `Quick test_engine_selfcheck_clean;
          Alcotest.test_case "rent spec" `Quick test_rent_spec;
        ] );
      ( "solve",
        [
          Alcotest.test_case "flat is the driver" `Quick test_solve_flat_is_driver;
          Alcotest.test_case "mlevel is the engine" `Quick
            test_solve_mlevel_is_engine;
        ] );
      ("property", List.map QCheck_alcotest.to_alcotest [ prop_contract_exact ]);
    ]
