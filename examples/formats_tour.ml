(* Formats tour: one circuit travelling through every interchange format
   the library supports — BLIF, structural Verilog, XNF — plus a saved
   partition file, with invariants checked at every hop.

   Run with: dune exec examples/formats_tour.exe *)

module Hg = Hypergraph.Hgraph

let describe label h =
  Format.printf "%-22s %d cells, %d pads, %d nets, size %d, flops %d@." label
    (Hg.num_cells h) (Hg.num_pads h) (Hg.num_nets h) (Hg.total_size h)
    (Hg.total_flops h)

let () =
  (* a small sequential circuit: 30% of cells carry a flip-flop *)
  let spec =
    {
      (Netlist.Generator.default_spec ~name:"tour" ~cells:150 ~pads:20 ~seed:99) with
      Netlist.Generator.flop_ratio = 0.3;
    }
  in
  let circuit = Netlist.Generator.generate spec in
  describe "generated:" circuit;

  (* BLIF: the classic academic format; latches carry the FF marks *)
  let blif_text = Netlist.Blif.to_string (Netlist.Blif.of_hypergraph ~name:"tour" circuit) in
  let from_blif =
    match Netlist.Blif.parse_string blif_text with
    | Ok m -> m.Netlist.Blif.graph
    | Error e -> failwith e
  in
  describe "via BLIF:" from_blif;
  Format.printf
    "  (BLIF can only express a flip-flop on two-net cells via .latch, so@.\
    \   most FF annotations degrade — use Verilog or XNF to keep weights)@.";

  (* Verilog: SIZE/FLOPS parameters make the weights exact *)
  let v_text =
    Netlist.Verilog.to_string (Netlist.Verilog.of_hypergraph ~name:"tour" circuit)
  in
  let from_verilog =
    match Netlist.Verilog.parse_string v_text with
    | Ok m -> m.Netlist.Verilog.graph
    | Error e -> failwith e
  in
  describe "via Verilog:" from_verilog;

  (* XNF: the era-native Xilinx format *)
  let xnf_text =
    Netlist.Xnf.to_string
      (Netlist.Xnf.of_hypergraph ~part:"3020PC68" ~name:"tour" circuit)
  in
  let from_xnf =
    match Netlist.Xnf.parse_string ~name:"tour" xnf_text with
    | Ok d -> d.Netlist.Xnf.graph
    | Error e -> failwith e
  in
  describe "via XNF:" from_xnf;

  (* partition the Verilog round-trip and archive the result *)
  let r = Fpart.Driver.run from_verilog Device.xc3020 in
  Format.printf "@.FPART on the round-tripped circuit: %d x XC3020 (M = %d)@."
    r.Fpart.Driver.k r.Fpart.Driver.m_lower;
  let pf =
    Netlist.Partfile.of_assignment from_verilog ~circuit:"tour"
      ~delta:r.Fpart.Driver.delta
      ~block_devices:(Array.make r.Fpart.Driver.k "XC3020")
      ~assignment:r.Fpart.Driver.assignment
  in
  let text = Netlist.Partfile.to_string pf in
  Format.printf "partition file: %d lines; reloading and validating...@."
    (List.length (String.split_on_char '\n' text));
  match Netlist.Partfile.parse_string text with
  | Error e -> failwith e
  | Ok pf2 -> (
    match Netlist.Partfile.apply pf2 from_verilog with
    | Error e -> failwith e
    | Ok (assignment, k) ->
      let ctx =
        Partition.Cost.context_of Device.xc3020 ~delta:r.Fpart.Driver.delta
          from_verilog
      in
      let report = Partition.Check.of_assignment from_verilog ~k ~assignment ~ctx in
      Format.printf "%a" Partition.Check.pp report)
