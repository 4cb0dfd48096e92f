(* Load: the netlist sources the binaries share — a file read by its
   extension, or a synthetic circuit named by a generator spec. *)

module Hg = Hypergraph.Hgraph
module Load = Netlist.Load
module Gen = Netlist.Generator

let circuit = Gen.generate (Gen.default_spec ~name:"ld" ~cells:40 ~pads:8 ~seed:3)

let with_temp ext write f =
  let path = Filename.temp_file "fpart_load" ext in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      write path;
      f path)

let load_ok path =
  match Load.file path with
  | Ok (name, h) -> (name, h)
  | Error e -> Alcotest.failf "load %s: %s" path e

(* [Load.file] must return exactly what the format's own parser does. *)
let check_same_as label (name, h) expected =
  match expected with
  | Error e -> Alcotest.failf "%s: direct parse failed: %s" label e
  | Ok (name', h') ->
    Alcotest.(check string) (label ^ ": name") name' name;
    Alcotest.(check string) (label ^ ": graph") (Hg.digest h') (Hg.digest h)

let test_xnf_by_extension () =
  let write path =
    Netlist.Xnf.write_file path (Netlist.Xnf.of_hypergraph ~name:"ld" circuit)
  in
  with_temp ".xnf" write (fun path ->
      let got = load_ok path in
      check_same_as "xnf" got
        (Result.map
           (fun d -> (d.Netlist.Xnf.design_name, d.Netlist.Xnf.graph))
           (Netlist.Xnf.parse_file path));
      Alcotest.(check int) "cells" 40 (Hg.num_cells (snd got)))

let test_verilog_by_extension () =
  let write path =
    Netlist.Verilog.write_file path (Netlist.Verilog.of_hypergraph ~name:"ld" circuit)
  in
  with_temp ".v" write (fun path ->
      let got = load_ok path in
      check_same_as "verilog" got
        (Result.map
           (fun m -> (m.Netlist.Verilog.mod_name, m.Netlist.Verilog.graph))
           (Netlist.Verilog.parse_file path));
      Alcotest.(check string) "module name" "ld" (fst got))

let test_blif_otherwise () =
  let write path =
    Netlist.Blif.write_file path (Netlist.Blif.of_hypergraph ~name:"ld" circuit)
  in
  List.iter
    (fun ext ->
      with_temp ext write (fun path ->
          let got = load_ok path in
          check_same_as ("blif" ^ ext) got
            (Result.map
               (fun m -> (m.Netlist.Blif.model_name, m.Netlist.Blif.graph))
               (Netlist.Blif.parse_file path));
          Alcotest.(check string) (ext ^ ": model name") "ld" (fst got)))
    [ ".blif"; ".net"; "" ]

let test_errors_pass_through () =
  (* the extension alone picks the parser: BLIF text in a .xnf file is
     an XNF error, and the parser's message comes back unprefixed *)
  let write path =
    Netlist.Blif.write_file path (Netlist.Blif.of_hypergraph ~name:"ld" circuit)
  in
  with_temp ".xnf" write (fun path ->
      match (Load.file path, Netlist.Xnf.parse_file path) with
      | Error e, Error e' -> Alcotest.(check string) "xnf parser's message" e' e
      | Ok _, _ -> Alcotest.fail "BLIF text accepted as XNF"
      | Error _, Ok _ -> Alcotest.fail "loader and XNF parser disagree")

(* A path the reader cannot read — a directory, under every extension,
   or a missing file — is an [Error] with the system's reason, never an
   escaping [Sys_error]. *)
let test_unreadable_paths () =
  let dir = Filename.temp_dir "fpart_load" "" in
  let subdirs =
    List.map (fun ext -> Filename.concat dir ("d" ^ ext)) [ ".v"; ".xnf"; ".blif" ]
  in
  let expect label reason = function
    | Error e -> Alcotest.(check string) label reason e
    | Ok _ -> Alcotest.failf "%s: read succeeded" label
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun d -> if Sys.file_exists d then Sys.rmdir d) subdirs;
      Sys.rmdir dir)
    (fun () ->
      List.iter
        (fun path ->
          Sys.mkdir path 0o755;
          expect path "Is a directory" (Load.file path))
        subdirs;
      expect "partfile directory" "Is a directory" (Netlist.Partfile.parse_file dir);
      expect "missing file" "No such file or directory"
        (Load.file (Filename.concat dir "missing.blif")))

let gen_ok spec ~seed =
  match Load.generate spec ~seed with
  | Ok (name, h) -> (name, h)
  | Error e -> Alcotest.failf "generate %s: %s" spec e

let test_cells_x_pads () =
  let name, h = gen_ok "300x40" ~seed:7 in
  Alcotest.(check string) "name" "generated" name;
  Alcotest.(check int) "cells" 300 (Hg.num_cells h);
  Alcotest.(check int) "pads" 40 (Hg.num_pads h);
  Alcotest.(check string) "default_spec circuit"
    (Hg.digest (Gen.generate (Gen.default_spec ~name:"gen" ~cells:300 ~pads:40 ~seed:7)))
    (Hg.digest h)

let test_rent_cells () =
  let name, h = gen_ok "rent:400" ~seed:2 in
  Alcotest.(check string) "name" "generated" name;
  Alcotest.(check int) "cells" 400 (Hg.num_cells h);
  Alcotest.(check string) "rent_spec circuit"
    (Hg.digest (Gen.generate (Gen.rent_spec ~name:"rent" ~cells:400 ~seed:2)))
    (Hg.digest h);
  Alcotest.(check int) "smallest rent circuit" 64 (Hg.num_cells (snd (gen_ok "rent:64" ~seed:1)))

let test_bad_specs () =
  let cells_x_pads = "expected CELLSxPADS or rent:CELLS" in
  let rent = "expected rent:CELLS with CELLS >= 64" in
  List.iter
    (fun (spec, expected) ->
      match Load.generate spec ~seed:1 with
      | Ok _ -> Alcotest.failf "spec %S accepted" spec
      | Error e -> Alcotest.(check string) (Printf.sprintf "spec %S" spec) expected e)
    [
      ("", cells_x_pads);
      ("300", cells_x_pads);
      ("300x", cells_x_pads);
      ("x40", cells_x_pads);
      ("300X40", cells_x_pads);
      ("300x40x2", cells_x_pads);
      ("1x5", cells_x_pads);
      ("10x0", cells_x_pads);
      ("rent:", cells_x_pads);
      ("rent:63", rent);
      ("rent:abc", rent);
      ("rent:-100", rent);
    ]

let test_generate_seeded () =
  let digest spec seed = Hg.digest (snd (gen_ok spec ~seed)) in
  List.iter
    (fun spec ->
      Alcotest.(check string) (spec ^ ": same seed") (digest spec 3) (digest spec 3);
      Alcotest.(check bool) (spec ^ ": seed matters") true (digest spec 3 <> digest spec 4))
    [ "120x16"; "rent:128" ]

let () =
  Alcotest.run "load"
    [
      ( "file",
        [
          Alcotest.test_case ".xnf read as XNF" `Quick test_xnf_by_extension;
          Alcotest.test_case ".v read as Verilog" `Quick test_verilog_by_extension;
          Alcotest.test_case "other extensions read as BLIF" `Quick test_blif_otherwise;
          Alcotest.test_case "parser errors pass through" `Quick test_errors_pass_through;
          Alcotest.test_case "unreadable paths are errors" `Quick test_unreadable_paths;
        ] );
      ( "generate",
        [
          Alcotest.test_case "CELLSxPADS" `Quick test_cells_x_pads;
          Alcotest.test_case "rent:CELLS" `Quick test_rent_cells;
          Alcotest.test_case "bad specs name the expected form" `Quick test_bad_specs;
          Alcotest.test_case "deterministic in the seed" `Quick test_generate_seeded;
        ] );
    ]
