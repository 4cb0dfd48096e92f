module Hg = Hypergraph.Hgraph

type model = { model_name : string; graph : Hg.t }

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)
(* ------------------------------------------------------------------ *)

type raw_line = { lineno : int; tokens : string list }

(* Split input into logical lines: strip comments, join continuations
   ending in '\', drop blanks. *)
let logical_lines text =
  let lines = String.split_on_char '\n' text in
  let rec go acc pending pending_no n = function
    | [] ->
      let acc =
        match pending with
        | Some buf -> { lineno = pending_no; tokens = buf } :: acc
        | None -> acc
      in
      List.rev acc
    | line :: rest ->
      let n = n + 1 in
      let line =
        match String.index_opt line '#' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      let line = String.trim line in
      let continued = String.length line > 0 && line.[String.length line - 1] = '\\' in
      let body = if continued then String.sub line 0 (String.length line - 1) else line in
      let tokens =
        String.split_on_char ' ' body
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun s -> s <> "")
      in
      let merged, merged_no =
        match pending with
        | Some buf -> (buf @ tokens, pending_no)
        | None -> (tokens, n)
      in
      if continued then go acc (Some merged) merged_no n rest
      else if merged = [] then go acc None 0 n rest
      else go ({ lineno = merged_no; tokens = merged } :: acc) None 0 n rest
  in
  go [] None 0 0 lines

type cell_desc = { cell_label : string; signals : string list; is_latch : bool }

type parse_state = {
  mutable the_model : string option;
  mutable inputs : string list;  (* reversed *)
  mutable outputs : string list; (* reversed *)
  mutable cells : cell_desc list; (* reversed *)
  mutable cell_count : int;
  mutable ended : bool;
}

let err lineno fmt = Format.kasprintf (fun s -> Error (Printf.sprintf "line %d: %s" lineno s)) fmt

let is_latch_type = function
  | "fe" | "re" | "ah" | "al" | "as" -> true
  | _ -> false

let parse_gate_actuals args =
  (* formal=actual pairs; we only need the actual signal names *)
  List.filter_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i when i < String.length tok - 1 ->
        Some (String.sub tok (i + 1) (String.length tok - i - 1))
      | _ -> None)
    args

let parse_lines lines =
  let st =
    { the_model = None; inputs = []; outputs = []; cells = []; cell_count = 0; ended = false }
  in
  let fresh_label prefix =
    st.cell_count <- st.cell_count + 1;
    Printf.sprintf "%s%d" prefix st.cell_count
  in
  let add_cell ?(is_latch = false) label signals =
    st.cells <- { cell_label = label; signals; is_latch } :: st.cells
  in
  let rec go = function
    | [] -> Ok ()
    | { lineno; tokens } :: rest -> (
      if st.ended then Ok () (* ignore everything after .end *)
      else
        match tokens with
        | ".model" :: name :: _ ->
          if st.the_model = None then st.the_model <- Some name;
          go rest
        | ".model" :: [] -> err lineno ".model without a name"
        | ".inputs" :: sigs ->
          st.inputs <- List.rev_append sigs st.inputs;
          go rest
        | ".outputs" :: sigs ->
          st.outputs <- List.rev_append sigs st.outputs;
          go rest
        | ".names" :: sigs ->
          if sigs = [] then err lineno ".names without signals"
          else begin
            add_cell (fresh_label "g") sigs;
            go rest
          end
        | ".latch" :: args -> (
          match args with
          | input :: output :: tail ->
            let ctrl =
              match tail with
              | ty :: ctrl :: _ when is_latch_type ty -> [ ctrl ]
              | _ -> []
            in
            add_cell ~is_latch:true (fresh_label "l") (input :: output :: ctrl);
            go rest
          | _ -> err lineno ".latch needs at least input and output")
        | (".gate" | ".subckt") :: name :: args ->
          let actuals = parse_gate_actuals args in
          if actuals = [] then err lineno ".gate/.subckt %s has no connections" name
          else begin
            add_cell (fresh_label (name ^ "_")) actuals;
            go rest
          end
        | ".end" :: _ ->
          st.ended <- true;
          go rest
        | tok :: _ when String.length tok > 0 && tok.[0] = '.' ->
          (* unknown directive: ignore *)
          go rest
        | _ ->
          (* cover line of the preceding .names: ignore *)
          go rest)
  in
  match go lines with
  | Error _ as e -> e
  | Ok () -> (
    match st.the_model with
    | None -> Error "no .model found"
    | Some name ->
      Ok (name, List.rev st.inputs, List.rev st.outputs, List.rev st.cells))

let build_graph (name, inputs, outputs, cells) =
  let b = Hg.Builder.create () in
  (* signal -> list of node ids (reversed) *)
  let nets : (string, int list ref) Hashtbl.t = Hashtbl.create 256 in
  let touch signal node =
    match Hashtbl.find_opt nets signal with
    | Some l -> l := node :: !l
    | None -> Hashtbl.add nets signal (ref [ node ])
  in
  List.iter
    (fun c ->
      let id =
        Hg.Builder.add_cell b
          ~flops:(if c.is_latch then 1 else 0)
          ~name:c.cell_label ~size:1
      in
      List.iter (fun s -> touch s id) (List.sort_uniq compare c.signals))
    cells;
  let add_pads role signals =
    List.iteri
      (fun i s ->
        let id = Hg.Builder.add_pad b ~name:(Printf.sprintf "%s_%s%d" s role i) in
        touch s id)
      signals
  in
  add_pads "in" inputs;
  add_pads "out" outputs;
  (* one net per signal with >= 2 pins, in deterministic (sorted) order *)
  let signals = Hashtbl.fold (fun s _ acc -> s :: acc) nets [] |> List.sort compare in
  List.iter
    (fun s ->
      let pins = List.sort_uniq compare !(Hashtbl.find nets s) in
      if List.length pins >= 2 then ignore (Hg.Builder.add_net b ~name:s pins))
    signals;
  { model_name = name; graph = Hg.Builder.freeze b }

let parse_string text =
  match parse_lines (logical_lines text) with
  | Error _ as e -> e
  | Ok parsed ->
    let m = build_graph parsed in
    (match Hg.validate m.graph with
    | Ok () -> Ok m
    | Error msg -> Error ("internal: invalid hypergraph from BLIF: " ^ msg))

let parse_file path = Result.bind (Textfile.read path) parse_string

(* ------------------------------------------------------------------ *)
(* Printing                                                           *)
(* ------------------------------------------------------------------ *)

let to_string m =
  let h = m.graph in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf ".model %s\n" m.model_name);
  (* Pads become .inputs/.outputs signals named after their single net.
     Even pad index -> input, odd -> output (matches the generator). *)
  let pad_signal v =
    match Hg.nets_of h v with
    | [| e |] -> Hg.net_name h e
    | nets ->
      if Array.length nets = 0 then
        invalid_arg (Printf.sprintf "Blif.to_string: pad %s has no net" (Hg.name h v))
      else
        invalid_arg
          (Printf.sprintf "Blif.to_string: pad %s has %d nets (expected 1)"
             (Hg.name h v) (Array.length nets))
  in
  let ins = ref [] and outs = ref [] in
  let flip = ref true in
  Hg.iter_pads
    (fun v ->
      let s = pad_signal v in
      if !flip then ins := s :: !ins else outs := s :: !outs;
      flip := not !flip)
    h;
  let emit_list dir l =
    if l <> [] then
      Buffer.add_string buf (Printf.sprintf "%s %s\n" dir (String.concat " " (List.rev l)))
  in
  emit_list ".inputs" !ins;
  emit_list ".outputs" !outs;
  Hg.iter_cells
    (fun v ->
      let signals = Array.to_list (Hg.nets_of h v) |> List.map (Hg.net_name h) in
      match signals with
      | [] ->
        (* isolated cell: emit a private constant signal to keep it *)
        Buffer.add_string buf (Printf.sprintf ".names __dangling_%d\n1\n" v)
      | [ a; b ] when Hg.flops h v > 0 ->
        (* two-net flop cells round-trip as latches (preserves the FF
           annotation); wider flop cells degrade to .names below *)
        Buffer.add_string buf (Printf.sprintf ".latch %s %s\n" a b)
      | _ ->
        Buffer.add_string buf (Printf.sprintf ".names %s\n" (String.concat " " signals));
        let n_in = List.length signals - 1 in
        if n_in > 0 then
          Buffer.add_string buf (String.make n_in '1' ^ " 1\n")
        else Buffer.add_string buf "1\n")
    h;
  Buffer.add_string buf ".end\n";
  Buffer.contents buf

let write_file path m =
  (* render first: a rendering error must not leave an empty file *)
  let text = to_string m in
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let of_hypergraph ~name h = { model_name = name; graph = h }
