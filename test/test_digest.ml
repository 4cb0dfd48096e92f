(* Canonical workload digests: Hgraph.digest must be a function of the
   named structure only (invariant under node relabelings), and
   Config.digest must move exactly when a result-relevant knob moves.
   These are the cache keys of fpart_serve and the grouping keys of
   fpart_inspect trend/regress, so a silent change here silently
   cross-pollinates baselines. *)

module Hg = Hypergraph.Hgraph
module Sm = Prng.Splitmix
module Tg = Fpart_testgen

(* A random permutation that maps cells to cell positions and pads to
   pad positions — the only relabelings [Tg.relabel] accepts. *)
let kind_stable_permutation hg seed =
  let n = Hg.num_nodes hg in
  let cells = ref [] and pads = ref [] in
  Hg.iter_nodes
    (fun v -> if Hg.is_pad hg v then pads := v :: !pads else cells := v :: !cells)
    hg;
  let perm = Array.init n Fun.id in
  let scatter rng group =
    let group = Array.of_list (List.rev group) in
    let shuffled = Array.copy group in
    Sm.shuffle rng shuffled;
    Array.iteri (fun i v -> perm.(v) <- shuffled.(i)) group
  in
  let rng = Sm.create seed in
  scatter rng !cells;
  scatter rng !pads;
  perm

let prop_digest_relabel_invariant =
  QCheck.Test.make ~count:40 ~name:"digest is invariant under node relabeling"
    (Tg.arb_scene ~max_cells:80 ())
    (fun sc ->
      let hg = Tg.scene_graph sc in
      let perm = kind_stable_permutation hg (sc.Tg.sc_seed + 1) in
      Hg.digest hg = Hg.digest (Tg.relabel hg ~perm))

let prop_digest_pad_order_invariant =
  QCheck.Test.make ~count:40 ~name:"digest is invariant under pad permutation"
    (Tg.arb_scene ~max_cells:60 ())
    (fun sc ->
      let hg = Tg.scene_graph sc in
      let perm = Tg.pad_permutation hg (sc.Tg.sc_seed + 2) in
      Hg.digest hg = Hg.digest (Tg.relabel hg ~perm))

(* Rebuild [hg] verbatim through [edit], which may tweak one node or
   add structure; the digest must notice. *)
let rebuild ?(resize = fun _ s -> s) ?(extra = fun _ -> ()) hg =
  let b = Hg.Builder.create () in
  Hg.iter_nodes
    (fun v ->
      ignore
        (match Hg.kind hg v with
        | Hg.Cell ->
          Hg.Builder.add_cell b ~flops:(Hg.flops hg v) ~name:(Hg.name hg v)
            ~size:(resize v (Hg.size hg v))
        | Hg.Pad -> Hg.Builder.add_pad b ~name:(Hg.name hg v)))
    hg;
  Hg.iter_nets
    (fun e ->
      ignore
        (Hg.Builder.add_net b ~name:(Hg.net_name hg e)
           (Array.to_list (Hg.pins hg e))))
    hg;
  extra b;
  Hg.Builder.freeze b

let test_digest_sensitive_to_structure () =
  let hg = Tg.circuit ~cells:40 ~pads:5 9 in
  let d0 = Hg.digest hg in
  Alcotest.(check string) "verbatim rebuild keeps the digest" d0
    (Hg.digest (rebuild hg));
  let bigger = rebuild ~resize:(fun v s -> if v = 0 then s + 1 else s) hg in
  Alcotest.(check bool) "a cell size change moves the digest" true
    (d0 <> Hg.digest bigger);
  let extra_net b =
    ignore (Hg.Builder.add_net b ~name:"digest_extra" [ 0; 1 ])
  in
  Alcotest.(check bool) "an added net moves the digest" true
    (d0 <> Hg.digest (rebuild ~extra:extra_net hg))

let test_config_digest_tracks_knobs () =
  let d0 = Fpart.Config.digest Fpart.Config.default in
  let with_seed =
    Fpart.Config.digest { Fpart.Config.default with Fpart.Config.seed = 99 }
  in
  Alcotest.(check bool) "seed is result-relevant" true (d0 <> with_seed);
  let with_jobs =
    Fpart.Config.digest { Fpart.Config.default with Fpart.Config.jobs = 7 }
  in
  Alcotest.(check string) "jobs is not result-relevant" d0 with_jobs;
  Alcotest.(check bool) "extra tag separates frontends" true
    (d0 <> Fpart.Config.digest ~extra:"algo=kwayx" Fpart.Config.default)

(* Every result-relevant field of [Config.t] moves the digest, each edit
   to a different value; [jobs] and [selfcheck], which never change a
   partition, leave it alone. *)
let test_config_digest_covers_fields () =
  let module C = Fpart.Config in
  let d = C.default in
  let cost f = { d with C.cost = f d.C.cost } in
  let relevant =
    [
      ("delta", { d with C.delta = Some 0.8 });
      ("lambda_s", cost (fun c -> { c with Partition.Cost.lambda_s = 0.5 }));
      ("lambda_t", cost (fun c -> { c with Partition.Cost.lambda_t = 0.5 }));
      ("lambda_r", cost (fun c -> { c with Partition.Cost.lambda_r = 0.2 }));
      ("lambda_f", cost (fun c -> { c with Partition.Cost.lambda_f = 0.5 }));
      ("eps_min_two", { d with C.eps_min_two = 0.9 });
      ("stack_depth", { d with C.stack_depth = 5 });
      ("max_passes", { d with C.max_passes = 9 });
      ("gain_levels", { d with C.gain_levels = 3 });
      ( "bucket_discipline",
        { d with C.bucket_discipline = Gainbucket.Bucket_array.Fifo } );
      ("gain_mode", { d with C.gain_mode = Sanchis.Pin_gain });
      ("drift_limit", { d with C.drift_limit = Some 100 });
      ("random_initial", { d with C.random_initial = true });
      ("cluster_size", { d with C.cluster_size = Some 4 });
      ("refiner", { d with C.refiner = C.Hybrid_refiner });
      ("engine", { d with C.engine = C.Mlevel });
      ("runs", { d with C.runs = 2 });
      ("seed", { d with C.seed = 99 });
    ]
  in
  let d0 = C.digest d in
  List.iter
    (fun (name, c) ->
      Alcotest.(check bool) (name ^ " moves the digest") true (C.digest c <> d0))
    relevant;
  let digests = List.map (fun (_, c) -> C.digest c) relevant in
  Alcotest.(check int) "no two edits collide" (List.length digests)
    (List.length (List.sort_uniq compare digests));
  Alcotest.(check string) "jobs leaves the digest" d0
    (C.digest { d with C.jobs = 4 });
  Alcotest.(check string) "selfcheck leaves the digest" d0
    (C.digest { d with C.selfcheck = Fpart_check.Selfcheck.Paranoid })

(* The digest renders the enums by these names, and the binaries parse
   their options from the same tables: each name maps back to its value,
   no two values share a name, and an unknown name is rejected. *)
let test_config_name_tables () =
  let module C = Fpart.Config in
  List.iter
    (fun (name, r) ->
      Alcotest.(check string) ("refiner " ^ name) name (C.refiner_name r);
      Alcotest.(check bool) ("parse " ^ name) true
        (C.refiner_of_string name = Some r))
    C.refiners;
  List.iter
    (fun (name, e) ->
      Alcotest.(check string) ("engine " ^ name) name (C.engine_name e))
    C.engines;
  Alcotest.(check int) "refiner names unique" (List.length C.refiners)
    (List.length (List.sort_uniq compare (List.map fst C.refiners)));
  Alcotest.(check int) "engine names unique" (List.length C.engines)
    (List.length (List.sort_uniq compare (List.map fst C.engines)));
  Alcotest.(check bool) "flow is not a refiner" true
    (C.refiner_of_string "flow" = None)

let () =
  Alcotest.run "digest"
    [
      ( "hgraph",
        [
          Alcotest.test_case "structural edits noticed" `Quick
            test_digest_sensitive_to_structure;
        ] );
      ( "config",
        [
          Alcotest.test_case "knob sensitivity" `Quick
            test_config_digest_tracks_knobs;
          Alcotest.test_case "every field covered" `Quick
            test_config_digest_covers_fields;
          Alcotest.test_case "name tables round-trip" `Quick
            test_config_name_tables;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [ prop_digest_relabel_invariant; prop_digest_pad_order_invariant ] );
    ]
