(* fpart_fuzz: randomized differential testing of the FPART pipeline.

   Each round generates a synthetic circuit (one third of the rounds
   reweighted with random cell sizes, which stress the size-window
   legality tests that unit-size circuits never exercise) and drives
   four independent comparisons against the reference oracles of
   Fpart_check:

   1. move-log replay — a random move sequence is executed through the
      incremental Partition.State; the recorded log (with the engine's
      own gain and cut claims) must replay cleanly against the oracle;
   2. end-to-end driver run with [selfcheck = Cheap] — every pass
      boundary is validated against the oracle, and the final partition
      must pass a full state diff.  The gain mode (cut/pin) and bucket
      discipline (LIFO/FIFO) are drawn at random so the whole engine
      matrix gets oracle coverage;
   3. jobs determinism — [Driver.run_best] at jobs=1 and jobs=4 must
      produce bit-identical assignments (capped to smaller circuits to
      keep the round cheap);
   4. gains — a driver run at [selfcheck = Paranoid] (Cheap above 150
      cells) compares every bucket gain each applied move could have
      changed with the oracle; any violation is a divergence, again
      across a random draw of gain mode and bucket discipline;
   5. flat-vs-mlevel — the multilevel V-cycle engine runs the same
      circuit under [selfcheck = Cheap] (which exercises its per-level
      contraction-exactness oracle): its claimed cut must equal the
      oracle recomputation, the self-check must stay clean, and its
      quality must stay in the flat driver's class (never infeasible
      where flat is feasible, never more than 2 extra devices);
   6. refiner differential — the sanchis and hybrid improvement
      backends each drive the circuit end to end (paranoid self-checks
      on the smaller rounds): every result must match the oracle
      recomputation and end feasible; then, as refine-step
      differentials on the same projected state, the hybrid refinement
      (the identical Sanchis schedule plus cut-non-increasing flow
      passes) must never end with a worse cut than pure Sanchis, and a
      corridor flow sweep alone must never grow the cut;
   7. ECO warm start — a random one-cell netlist edit is re-legalized
      from the cold partition's partfile: a warm answer must be
      feasible and oracle-consistent, a cold fallback must still
      partition the edited netlist;
   8. clustered run — the clustering pre-pass ([cluster_size] drawn
      from 2..6) runs under [selfcheck = Cheap]: the self-check must
      stay clean, the claimed cut must equal the oracle recomputation
      on the flat circuit, and [k] must not undercut the lower bound
      [M].

   Rounds are seeded [seed, seed+1, ..]: a failing seed printed by this
   tool replays exactly with [--seed N --rounds 1].  Randomness comes
   from the in-tree SplitMix64 generator, not QCheck, so this executable
   can ship in the fpart package without test-only dependencies. *)

open Cmdliner
module Sm = Prng.Splitmix
module Hg = Hypergraph.Hgraph
module State = Partition.State
module Check = Fpart_check

let devices = [| "XC2064"; "XC3020"; "XC3042" |]

let device_of_name name =
  match Device.find name with
  | Some d -> d
  | None -> failwith ("fpart_fuzz: unknown device " ^ name)

type outcome = Ok_round | Divergence of string

(* Rebuild [hg] with fresh random cell sizes in [1, 4] (names, flops,
   node numbering and net order preserved).  The generator emits
   unit-size cells only, so without this pass the fuzzer would never
   exercise the weighted size arithmetic of the move windows. *)
let reweight rng hg =
  let b = Hg.Builder.create () in
  Hg.iter_nodes
    (fun v ->
      ignore
        (match Hg.kind hg v with
        | Hg.Cell ->
          Hg.Builder.add_cell b ~flops:(Hg.flops hg v) ~name:(Hg.name hg v)
            ~size:(Sm.int_in rng 1 4)
        | Hg.Pad -> Hg.Builder.add_pad b ~name:(Hg.name hg v)))
    hg;
  Hg.iter_nets
    (fun e ->
      ignore
        (Hg.Builder.add_net b ~name:(Hg.net_name hg e)
           (Array.to_list (Hg.pins hg e))))
    hg;
  Hg.Builder.freeze b

let random_circuit rng ~max_cells =
  let cells = Sm.int_in rng 10 (max max_cells 10) in
  let pads = Sm.int_in rng 4 (max 4 (cells / 4)) in
  let seed = Sm.int rng 0x3FFFFFFF in
  let spec =
    Netlist.Generator.default_spec ~name:"fuzz" ~cells ~pads ~seed
  in
  let hg = Netlist.Generator.generate spec in
  if Sm.int rng 3 = 0 then reweight rng hg else hg

(* A random point in the engine matrix shared by the driver and the
   gain checks. *)
let random_engine_axes rng =
  let gain_mode = if Sm.bool rng then Sanchis.Cut_gain else Sanchis.Pin_gain in
  let discipline =
    if Sm.bool rng then Gainbucket.Bucket_array.Lifo
    else Gainbucket.Bucket_array.Fifo
  in
  (gain_mode, discipline)

(* Comparison 1: random move log, recorded through the incremental state,
   replayed against the oracle. *)
let check_replay rng hg =
  let n = Hypergraph.Hgraph.num_nodes hg in
  let k = Sm.int_in rng 2 4 in
  let init = Array.init n (fun _ -> Sm.int rng k) in
  let n_moves = 2 * n in
  let assign = Array.copy init in
  let moves =
    List.init n_moves (fun _ ->
        let v = Sm.int rng n in
        let dest = (assign.(v) + 1 + Sm.int rng (k - 1)) mod k in
        assign.(v) <- dest;
        (v, dest))
  in
  let log = Check.Diff.log_of_moves hg ~k ~init ~moves in
  match Check.Diff.replay hg ~k ~init ~log with
  | Ok _ -> Ok_round
  | Error v -> Divergence (Format.asprintf "replay: %a" Check.Diff.pp_violation v)

(* Comparison 2: full driver run under the cheap self-check level, plus a
   final state diff. *)
let check_driver rng hg =
  let device = device_of_name (Sm.choose rng devices) in
  let gain_mode, bucket_discipline = random_engine_axes rng in
  let config =
    {
      Fpart.Config.default with
      seed = Sm.int rng 0xFFFF;
      selfcheck = Check.Selfcheck.Cheap;
      gain_mode;
      bucket_discipline;
    }
  in
  let before = Check.Selfcheck.violations_seen () in
  let r = Fpart.Driver.run ~config hg device in
  let after = Check.Selfcheck.violations_seen () in
  if after > before then
    Divergence
      (Printf.sprintf "driver selfcheck: %d violation(s) on %s" (after - before)
         device.Device.dev_name)
  else
    let st = Fpart.Driver.final_state r hg in
    match Check.Oracle.diff_state st with
    | [] -> Ok_round
    | reason :: _ -> Divergence ("driver final state: " ^ reason)

(* Comparison 3: run_best must be bit-identical across domain counts. *)
let check_jobs rng hg =
  let device = device_of_name (Sm.choose rng devices) in
  let config = { Fpart.Config.default with seed = Sm.int rng 0xFFFF } in
  let r1 = Fpart.Driver.run_best ~config ~runs:3 hg device in
  let r4 = Fpart.Driver.run_best ~config:{ config with jobs = 4 } ~runs:3 hg device in
  if
    r1.Fpart.Driver.k = r4.Fpart.Driver.k
    && r1.Fpart.Driver.assignment = r4.Fpart.Driver.assignment
  then Ok_round
  else
    Divergence
      (Printf.sprintf "jobs determinism: jobs=1 gave k=%d cut=%d, jobs=4 gave k=%d cut=%d"
         r1.Fpart.Driver.k r1.Fpart.Driver.cut r4.Fpart.Driver.k r4.Fpart.Driver.cut)

(* Comparison 4: every neighbour gain the incremental engine maintains
   must equal the oracle's, at a random point of the (gain mode × bucket
   discipline) matrix.  The paranoid level checks each one; above the
   refiner round's 150-cell cap only the cheap boundary checks run. *)
let check_gains rng hg =
  let device = device_of_name (Sm.choose rng devices) in
  let gain_mode, bucket_discipline = random_engine_axes rng in
  let selfcheck =
    if Hg.num_cells hg <= 150 then Check.Selfcheck.Paranoid
    else Check.Selfcheck.Cheap
  in
  let config =
    {
      Fpart.Config.default with
      seed = Sm.int rng 0xFFFF;
      gain_mode;
      bucket_discipline;
      selfcheck;
    }
  in
  let before = Check.Selfcheck.violations_seen () in
  ignore (Fpart.Driver.run ~config hg device);
  let after = Check.Selfcheck.violations_seen () in
  if after > before then
    Divergence
      (Printf.sprintf "gain selfcheck: %d violation(s) on %s" (after - before)
         device.Device.dev_name)
  else Ok_round

(* Comparison 5: quality differential between the flat driver and the
   multilevel engine, with the contraction cross-checks live. *)
let check_mlevel rng hg =
  let device = device_of_name (Sm.choose rng devices) in
  let seed = Sm.int rng 0xFFFF in
  let flat = Solve.run { Fpart.Config.default with seed } hg device in
  let before = Check.Selfcheck.violations_seen () in
  let ml =
    Solve.run
      {
        Fpart.Config.default with
        seed;
        selfcheck = Check.Selfcheck.Cheap;
        engine = Fpart.Config.Mlevel;
      }
      hg device
  in
  let after = Check.Selfcheck.violations_seen () in
  let o =
    Check.Oracle.recompute hg ~k:ml.Fpart.Driver.k
      ~assign:(fun v -> ml.Fpart.Driver.assignment.(v))
  in
  if after > before then
    Divergence
      (Printf.sprintf "mlevel selfcheck: %d violation(s) on %s" (after - before)
         device.Device.dev_name)
  else if o.Check.Oracle.cut <> ml.Fpart.Driver.cut then
    Divergence
      (Printf.sprintf "mlevel cut: claimed %d, oracle %d" ml.Fpart.Driver.cut
         o.Check.Oracle.cut)
  else if flat.Fpart.Driver.feasible && not ml.Fpart.Driver.feasible then
    Divergence
      (Printf.sprintf "mlevel quality: flat feasible at k=%d, mlevel infeasible"
         flat.Fpart.Driver.k)
  else if ml.Fpart.Driver.k > flat.Fpart.Driver.k + 2 then
    Divergence
      (Printf.sprintf "mlevel quality: k=%d vs flat k=%d" ml.Fpart.Driver.k
         flat.Fpart.Driver.k)
  else Ok_round

(* Comparison 6: the refiner matrix.  End-to-end runs cannot promise a
   cut order between backends (their trajectories diverge after the
   first Improve call), so the cut assertions are made where they are
   guaranteed: refine steps applied to copies of the same state, where
   hybrid = the identical Sanchis refinement followed by flow passes
   that only ever apply cut-non-increasing proposals, and a bare flow
   sweep under the same strict windows never grows the cut. *)
let check_refiner rng hg =
  let device = device_of_name (Sm.choose rng devices) in
  let seed = Sm.int rng 0xFFFF in
  let selfcheck =
    if Hg.num_cells hg <= 150 then Check.Selfcheck.Paranoid
    else Check.Selfcheck.Cheap
  in
  let run refiner =
    let config = { Fpart.Config.default with seed; selfcheck; refiner } in
    let name = Fpart.Config.refiner_name refiner in
    let before = Check.Selfcheck.violations_seen () in
    let r = Fpart.Driver.run ~config hg device in
    let after = Check.Selfcheck.violations_seen () in
    if after > before then
      Error
        (Printf.sprintf "%s selfcheck: %d violation(s) on %s" name
           (after - before) device.Device.dev_name)
    else
      let o =
        Check.Oracle.recompute hg ~k:r.Fpart.Driver.k
          ~assign:(fun v -> r.Fpart.Driver.assignment.(v))
      in
      if o.Check.Oracle.cut <> r.Fpart.Driver.cut then
        Error
          (Printf.sprintf "%s cut: claimed %d, oracle %d" name
             r.Fpart.Driver.cut o.Check.Oracle.cut)
      else if not r.Fpart.Driver.feasible then
        Error (Printf.sprintf "%s ended infeasible at k=%d" name r.Fpart.Driver.k)
      else Ok r
  in
  match run Fpart.Config.Sanchis_refiner with
  | Error e -> Divergence e
  | Ok rs -> (
    match run Fpart.Config.Hybrid_refiner with
    | Error e -> Divergence e
    | Ok _ ->
      let config = { Fpart.Config.default with seed } in
      let delta = Fpart.Config.delta_for config device in
      let ctx = Partition.Cost.context_of device ~delta hg in
      let refined refiner =
        let st = Fpart.Driver.final_state rs hg in
        Fpart.Driver.refine { config with refiner } ctx st;
        State.cut_size st
      in
      let cut_sanchis = refined Fpart.Config.Sanchis_refiner in
      let cut_hybrid = refined Fpart.Config.Hybrid_refiner in
      let st = Fpart.Driver.final_state rs hg in
      let cut_input = State.cut_size st in
      let k = State.k st in
      let eval st =
        Partition.Cost.evaluate config.Fpart.Config.cost ctx st ~remainder:None
          ~step_k:k
      in
      ignore
        (Flow.Refine.refine_active (Fpart.Config.flow config) st
           ~active:(Array.init k Fun.id) ~lower:(Array.make k 0)
           ~upper:(Array.make k ctx.Partition.Cost.s_max) ~eval);
      let cut_flow = State.cut_size st in
      if cut_hybrid > cut_sanchis then
        Divergence
          (Printf.sprintf "hybrid refine cut %d > sanchis refine cut %d"
             cut_hybrid cut_sanchis)
      else if cut_flow > cut_input then
        Divergence
          (Printf.sprintf "flow refine grew the cut: %d > input %d" cut_flow
             cut_input)
      else Ok_round)

(* Comparison 7: the ECO warm path.  Partition cold, apply a random
   small netlist edit, re-legalize from the stale partfile.  A [Warm]
   outcome must be feasible and oracle-consistent; a [Cold_needed]
   fallback must leave the delta'd netlist partitionable from scratch.
   The warm wall time is measured against the cold repartition of the
   same edited netlist — the quantitative claim lives in the bench
   latency table; here the fuzzer only insists both answers are legal. *)
let check_eco rng hg =
  if Hg.num_cells hg < 8 then Ok_round
  else begin
    let device = device_of_name (Sm.choose rng devices) in
    let config = { Fpart.Config.default with seed = Sm.int rng 0xFFFF } in
    let cold = Fpart.Driver.run ~config hg device in
    let pf =
      Netlist.Partfile.of_assignment hg ~circuit:"fuzz"
        ~delta:cold.Fpart.Driver.delta
        ~block_devices:(Array.make cold.Fpart.Driver.k device.Device.dev_name)
        ~assignment:cold.Fpart.Driver.assignment
    in
    (* remove one random cell, add one cell wired to a random survivor *)
    let rec pick_cell () =
      let v = Sm.int rng (Hg.num_nodes hg) in
      if Hg.is_pad hg v then pick_cell () else v
    in
    let removed = pick_cell () in
    let rec pick_anchor () =
      let v = pick_cell () in
      if v = removed then pick_anchor () else v
    in
    let d =
      {
        Netlist.Delta.empty with
        Netlist.Delta.remove_nodes = [ Hg.name hg removed ];
        add_cells =
          [ { Netlist.Delta.cell_name = "fz_eco"; size = 1; flops = 0 } ];
        add_nets =
          [
            {
              Netlist.Delta.net_name = "fz_eco_net";
              pins = [ "fz_eco"; Hg.name hg (pick_anchor ()) ];
            };
          ];
      }
    in
    match Netlist.Delta.apply d hg with
    | Error e -> Divergence ("delta apply refused a valid edit: " ^ e)
    | Ok hg' -> (
      match Serve.Eco.relegalize ~config ~device ~partfile:pf hg' with
      | Error e -> Divergence ("relegalize errored on a fresh partfile: " ^ e)
      | Ok (Serve.Eco.Warm { assignment; k; cut; total_pins; _ }) ->
        let o =
          Check.Oracle.recompute hg' ~k ~assign:(fun v -> assignment.(v))
        in
        if o.Check.Oracle.cut <> cut then
          Divergence
            (Printf.sprintf "eco warm cut: claimed %d, oracle %d" cut
               o.Check.Oracle.cut)
        else if o.Check.Oracle.t_sum <> total_pins then
          Divergence
            (Printf.sprintf "eco warm pins: claimed %d, oracle %d" total_pins
               o.Check.Oracle.t_sum)
        else begin
          let st = State.create hg' ~k ~assign:(fun v -> assignment.(v)) in
          let delta = Fpart.Config.delta_for config device in
          let ctx = Partition.Cost.context_of device ~delta hg' in
          match Partition.Cost.classify ctx st with
          | Partition.Cost.Feasible -> Ok_round
          | _ -> Divergence "eco warm outcome is not feasible"
        end
      | Ok (Serve.Eco.Cold_needed _) ->
        let cold' = Fpart.Driver.run ~config hg' device in
        if cold'.Fpart.Driver.feasible then Ok_round
        else
          Divergence
            (Printf.sprintf
               "eco fallback: cold repartition of the edited netlist infeasible at k=%d"
               cold'.Fpart.Driver.k))
  end

(* Comparison 8: the clustering pre-pass, contracted and projected back
   onto the flat circuit, with the cheap self-checks live. *)
let check_cluster rng hg =
  let device = device_of_name (Sm.choose rng devices) in
  let config =
    {
      Fpart.Config.default with
      seed = Sm.int rng 0xFFFF;
      cluster_size = Some (Sm.int_in rng 2 6);
      selfcheck = Check.Selfcheck.Cheap;
    }
  in
  let before = Check.Selfcheck.violations_seen () in
  let r = Fpart.Driver.run ~config hg device in
  let after = Check.Selfcheck.violations_seen () in
  let o =
    Check.Oracle.recompute hg ~k:r.Fpart.Driver.k
      ~assign:(fun v -> r.Fpart.Driver.assignment.(v))
  in
  if after > before then
    Divergence
      (Printf.sprintf "cluster selfcheck: %d violation(s) on %s" (after - before)
         device.Device.dev_name)
  else if o.Check.Oracle.cut <> r.Fpart.Driver.cut then
    Divergence
      (Printf.sprintf "cluster cut: claimed %d, oracle %d" r.Fpart.Driver.cut
         o.Check.Oracle.cut)
  else if r.Fpart.Driver.k < r.Fpart.Driver.m_lower then
    Divergence
      (Printf.sprintf "cluster k=%d below the lower bound M=%d" r.Fpart.Driver.k
         r.Fpart.Driver.m_lower)
  else Ok_round

let run_round ~max_cells round_seed =
  let rng = Sm.create round_seed in
  let hg = random_circuit rng ~max_cells in
  let checks =
    [
      ("replay", fun () -> check_replay rng hg);
      ("driver", fun () -> check_driver rng hg);
      ( "jobs",
        fun () ->
          if Hg.num_cells hg <= 150 then check_jobs rng hg
          else Ok_round );
      ("gains", fun () -> check_gains rng hg);
      ("mlevel", fun () -> check_mlevel rng hg);
      ("refiner", fun () -> check_refiner rng hg);
      ("eco", fun () -> check_eco rng hg);
      ("cluster", fun () -> check_cluster rng hg);
    ]
  in
  List.fold_left
    (fun acc (name, f) ->
      match acc with
      | Divergence _ -> acc
      | Ok_round -> (
        match f () with
        | Ok_round -> Ok_round
        | Divergence d -> Divergence (name ^ ": " ^ d)))
    Ok_round checks

let main rounds max_cells seed trace trace_format =
  if rounds < 1 then begin
    prerr_endline "fpart_fuzz: --rounds must be at least 1";
    2
  end
  else begin
    Obs_setup.setup_trace ~prog:"fpart_fuzz" trace trace_format;
    let divergences = ref 0 in
    for i = 0 to rounds - 1 do
      let round_seed = seed + i in
      match run_round ~max_cells round_seed with
      | Ok_round -> ()
      | Divergence msg ->
        incr divergences;
        Printf.printf "DIVERGENCE at seed %d: %s\n" round_seed msg;
        Printf.printf "  replay with: fpart_fuzz --seed %d --rounds 1 --max-cells %d\n"
          round_seed max_cells
    done;
    Printf.printf "fuzz: %d rounds, %d divergences (seeds %d..%d)\n" rounds
      !divergences seed
      (seed + rounds - 1);
    Obs_setup.finish_trace ();
    if !divergences = 0 then 0 else 1
  end

let rounds =
  Arg.(
    value
    & opt int 50
    & info [ "rounds" ] ~docv:"N" ~doc:"Number of fuzz rounds to run.")

let max_cells =
  Arg.(
    value
    & opt int 500
    & info [ "max-cells" ] ~docv:"N"
        ~doc:"Upper bound on generated circuit size (cells).")

let seed =
  Arg.(
    value
    & opt int 1
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Base seed; round $(i,i) uses seed+$(i,i), so a reported failing seed replays with --seed SEED --rounds 1.")

let cmd =
  let doc = "randomized differential fuzzing of the FPART pipeline" in
  Cmd.v
    (Cmd.info "fpart_fuzz" ~doc)
    Term.(
      const main $ rounds $ max_cells $ seed $ Obs_setup.trace_arg
      $ Obs_setup.trace_format_arg)

let () = exit (Cmd.eval' cmd)
