(* The connectivity-based clustering pre-pass ([Config.cluster_size]). *)

module Hg = Hypergraph.Hgraph
module State = Partition.State
module Matching = Cluster.Matching

let circuit ?(cells = 200) ?(pads = 20) seed =
  Netlist.Generator.generate
    (Netlist.Generator.default_spec ~name:"cl" ~cells ~pads ~seed)

(* The pre-pass as the clustered driver runs it: agglomerative matching
   under the size cap, exact contraction, projection by the map. *)
let cluster h ~max_cluster_size ~seed =
  let map, coarse_nodes =
    Matching.compute ~policy:Matching.Agglomerate ~max_weight:max_cluster_size
      ~seed h
  in
  (map, Hg.contract h ~map ~coarse_nodes)

let project map coarse_assign = Array.map (fun c -> coarse_assign.(c)) map

let members map c =
  List.filter (fun v -> map.(v) = c) (List.init (Array.length map) Fun.id)

let test_partition_of_nodes () =
  let h = circuit 1 in
  let map, coarse = cluster h ~max_cluster_size:4 ~seed:7 in
  let count = Array.make (Hg.num_nodes coarse) 0 in
  Array.iter (fun c -> count.(c) <- count.(c) + 1) map;
  Alcotest.(check int) "one entry per node" (Hg.num_nodes h) (Array.length map);
  Alcotest.(check bool) "every cluster non-empty" true (Array.for_all (( < ) 0) count)

let test_size_bound () =
  let h = circuit 2 in
  let _, coarse = cluster h ~max_cluster_size:5 ~seed:3 in
  Hg.iter_cells
    (fun c ->
      if Hg.size coarse c > 5 then
        Alcotest.failf "cluster %d has size %d" c (Hg.size coarse c))
    coarse

let test_pads_stay_single () =
  let h = circuit 3 in
  let map, coarse = cluster h ~max_cluster_size:8 ~seed:1 in
  Alcotest.(check int) "pad count preserved" (Hg.num_pads h) (Hg.num_pads coarse);
  Hg.iter_pads
    (fun c ->
      match members map c with
      | [ v ] -> Alcotest.(check bool) "member is a pad" true (Hg.is_pad h v)
      | ms -> Alcotest.failf "pad cluster with %d members" (List.length ms))
    coarse

let test_totals_preserved () =
  let spec =
    {
      (Netlist.Generator.default_spec ~name:"f" ~cells:150 ~pads:12 ~seed:4) with
      Netlist.Generator.flop_ratio = 0.4;
    }
  in
  let h = Netlist.Generator.generate spec in
  let _, coarse = cluster h ~max_cluster_size:4 ~seed:9 in
  Alcotest.(check int) "total size" (Hg.total_size h) (Hg.total_size coarse);
  Alcotest.(check int) "total flops" (Hg.total_flops h) (Hg.total_flops coarse)

let test_reduction () =
  let h = circuit 5 in
  let _, coarse = cluster h ~max_cluster_size:4 ~seed:2 in
  Alcotest.(check bool) "reduces" true
    (float_of_int (Hg.num_nodes h) /. float_of_int (Hg.num_nodes coarse) > 1.5);
  (* max_cluster_size 1 cannot merge anything *)
  let _, coarse1 = cluster h ~max_cluster_size:1 ~seed:2 in
  Alcotest.(check int) "identity coarsening" (Hg.num_nodes h) (Hg.num_nodes coarse1)

let test_pins_exact_under_projection () =
  (* coarse pin counts equal fine pin counts for projected assignments *)
  let h = circuit 7 in
  let map, coarse = cluster h ~max_cluster_size:4 ~seed:11 in
  let k = 4 in
  let coarse_assign = Array.init (Hg.num_nodes coarse) (fun c -> (c * 7) mod k) in
  let fine_assign = project map coarse_assign in
  let st_c = State.create coarse ~k ~assign:(fun c -> coarse_assign.(c)) in
  let st_f = State.create h ~k ~assign:(fun v -> fine_assign.(v)) in
  for b = 0 to k - 1 do
    Alcotest.(check int) (Printf.sprintf "pins of block %d" b)
      (State.pins_of st_c b) (State.pins_of st_f b);
    Alcotest.(check int) (Printf.sprintf "size of block %d" b)
      (State.size_of st_c b) (State.size_of st_f b)
  done;
  Alcotest.(check int) "cut" (State.cut_size st_c) (State.cut_size st_f)

let test_deterministic () =
  let h = circuit 8 in
  let map_a, a = cluster h ~max_cluster_size:4 ~seed:13 in
  let map_b, b = cluster h ~max_cluster_size:4 ~seed:13 in
  Alcotest.(check (array int)) "same map" map_a map_b;
  Alcotest.(check string) "same coarse graph" (Hg.digest a) (Hg.digest b)

let test_invalid () =
  let h = circuit 9 in
  Alcotest.check_raises "size 0" (Invalid_argument "Matching.compute: max_weight < 1")
    (fun () -> ignore (cluster h ~max_cluster_size:0 ~seed:1))

(* Regression: the clustered driver produced weighted coarse cells that
   once sent the Sanchis stash logic into an infinite move loop. *)
let test_clustered_driver_end_to_end () =
  let h = circuit ~cells:400 ~pads:50 10 in
  let config = { Fpart.Config.default with cluster_size = Some 4 } in
  let r = Fpart.Driver.run ~config h Device.xc3020 in
  Alcotest.(check bool) "feasible" true r.Fpart.Driver.feasible;
  Alcotest.(check bool) "k >= M" true (r.Fpart.Driver.k >= r.Fpart.Driver.m_lower);
  (* blocks verified against the real (fine) circuit *)
  let st = Fpart.Driver.final_state r h in
  let s_max = Device.s_max Device.xc3020 ~delta:r.Fpart.Driver.delta in
  for b = 0 to r.Fpart.Driver.k - 1 do
    Alcotest.(check bool) "size ok" true (State.size_of st b <= s_max);
    Alcotest.(check bool) "pins ok" true
      (State.pins_of st b <= Device.xc3020.Device.t_max)
  done

let test_clustered_close_to_flat () =
  let h = circuit ~cells:300 ~pads:40 11 in
  let flat = Fpart.Driver.run h Device.xc3020 in
  let config = { Fpart.Config.default with cluster_size = Some 4 } in
  let clustered = Fpart.Driver.run ~config h Device.xc3020 in
  (* coarsening costs at most a couple of devices on these sizes *)
  Alcotest.(check bool) "within 2 devices of flat" true
    (clustered.Fpart.Driver.k <= flat.Fpart.Driver.k + 2)

(* The clustered driver solves the contraction the pre-pass builds
   with the run's seed: the same k, iterations and schedule as a flat
   run on that coarse graph, and its cut and pins are those of the fine
   circuit. *)
let test_clustered_solves_contraction () =
  let h = circuit ~cells:300 ~pads:40 12 in
  let config = { Fpart.Config.default with cluster_size = Some 4 } in
  let r = Fpart.Driver.run ~config h Device.xc3020 in
  let _, coarse = cluster h ~max_cluster_size:4 ~seed:config.Fpart.Config.seed in
  let c =
    Fpart.Driver.run ~config:{ config with cluster_size = None } coarse Device.xc3020
  in
  Alcotest.(check int) "k of the coarse run" c.Fpart.Driver.k r.Fpart.Driver.k;
  Alcotest.(check int) "iterations of the coarse run" c.Fpart.Driver.iterations
    r.Fpart.Driver.iterations;
  Alcotest.(check int) "same lower bound" c.Fpart.Driver.m_lower r.Fpart.Driver.m_lower;
  Alcotest.(check bool) "schedule of the coarse run" true
    (c.Fpart.Driver.trace = r.Fpart.Driver.trace);
  let st = Fpart.Driver.final_state r h in
  Alcotest.(check int) "cut of the fine circuit" (State.cut_size st) r.Fpart.Driver.cut;
  Alcotest.(check int) "pins of the fine circuit" (State.total_pins st)
    r.Fpart.Driver.total_pins

(* A cluster size of 1 merges nothing, so the driver runs flat. *)
let test_cluster_size_one_is_flat () =
  let h = circuit ~cells:200 ~pads:30 13 in
  let flat = Fpart.Driver.run h Device.xc3020 in
  let config = { Fpart.Config.default with cluster_size = Some 1 } in
  let one = Fpart.Driver.run ~config h Device.xc3020 in
  Alcotest.(check int) "k" flat.Fpart.Driver.k one.Fpart.Driver.k;
  Alcotest.(check int) "cut" flat.Fpart.Driver.cut one.Fpart.Driver.cut;
  Alcotest.(check (array int)) "assignment" flat.Fpart.Driver.assignment
    one.Fpart.Driver.assignment

let prop_projection_partitions =
  QCheck.Test.make ~count:25 ~name:"projection is a valid total assignment"
    QCheck.(triple (int_range 20 150) (int_range 2 8) (int_range 0 10_000))
    (fun (cells, cs, seed) ->
      let h = circuit ~cells ~pads:4 seed in
      let map, coarse = cluster h ~max_cluster_size:cs ~seed in
      let k = 3 in
      let fine = project map (Array.init (Hg.num_nodes coarse) (fun c -> c mod k)) in
      Array.length fine = Hg.num_nodes h
      && Array.for_all (fun b -> b >= 0 && b < k) fine)

let prop_coarse_validates =
  QCheck.Test.make ~count:25 ~name:"coarse hypergraphs validate"
    QCheck.(pair (int_range 20 150) (int_range 2 8))
    (fun (cells, cs) ->
      let h = circuit ~cells ~pads:4 (cells + cs) in
      let _, coarse = cluster h ~max_cluster_size:cs ~seed:(cells * cs) in
      Hg.validate coarse = Ok ())

let () =
  Alcotest.run "cluster"
    [
      ( "unit",
        [
          Alcotest.test_case "partition of nodes" `Quick test_partition_of_nodes;
          Alcotest.test_case "size bound" `Quick test_size_bound;
          Alcotest.test_case "pads single" `Quick test_pads_stay_single;
          Alcotest.test_case "totals preserved" `Quick test_totals_preserved;
          Alcotest.test_case "reduction" `Quick test_reduction;
          Alcotest.test_case "pins exact" `Quick test_pins_exact_under_projection;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "invalid" `Quick test_invalid;
        ] );
      ( "driver",
        [
          Alcotest.test_case "clustered end-to-end" `Quick test_clustered_driver_end_to_end;
          Alcotest.test_case "close to flat" `Quick test_clustered_close_to_flat;
          Alcotest.test_case "solves the contraction" `Quick
            test_clustered_solves_contraction;
          Alcotest.test_case "cluster size 1 is flat" `Quick test_cluster_size_one_is_flat;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [ prop_projection_partitions; prop_coarse_validates ] );
    ]
