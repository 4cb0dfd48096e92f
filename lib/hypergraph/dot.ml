(* Colourblind-safe-ish cycle for block fills. *)
let palette =
  [| "#8dd3c7"; "#ffffb3"; "#bebada"; "#fb8072"; "#80b1d3"; "#fdb462";
     "#b3de69"; "#fccde5"; "#d9d9d9"; "#bc80bd"; "#ccebc5"; "#ffed6f" |]

let escape name =
  let buf = Buffer.create (String.length name + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c -> if c = '"' || c = '\\' then Buffer.add_char buf '\\' else ();
      Buffer.add_char buf c)
    name;
  Buffer.add_char buf '"';
  Buffer.contents buf

let to_dot ?assignment ?(name = "circuit") h =
  (match assignment with
  | Some a when Array.length a <> Hgraph.num_nodes h ->
    invalid_arg "Dot.to_dot: wrong assignment length"
  | Some _ | None -> ());
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "graph %s {\n" (escape name));
  Buffer.add_string buf "  overlap=false;\n  node [fontsize=9];\n";
  Hgraph.iter_nodes
    (fun v ->
      let shape = if Hgraph.is_pad h v then "circle" else "box" in
      let fill =
        match assignment with
        | Some a -> Printf.sprintf ", style=filled, fillcolor=\"%s\""
                      palette.(a.(v) mod Array.length palette)
        | None -> ""
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=%s, shape=%s%s];\n" v
           (escape (Hgraph.name h v)) shape fill))
    h;
  Hgraph.iter_nets
    (fun e ->
      if Hgraph.net_degree h e = 2 then begin
        (* two-pin nets as plain edges *)
        let pins = Hgraph.pins h e in
        Buffer.add_string buf (Printf.sprintf "  n%d -- n%d;\n" pins.(0) pins.(1))
      end
      else begin
        (* star expansion through a junction point *)
        Buffer.add_string buf
          (Printf.sprintf "  e%d [shape=point, width=0.05, label=\"\"];\n" e);
        Array.iter
          (fun v -> Buffer.add_string buf (Printf.sprintf "  e%d -- n%d;\n" e v))
          (Hgraph.pins h e)
      end)
    h;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write_file path ?assignment ?name h =
  (* render first: a rendering error must not leave an empty file *)
  let text = to_dot ?assignment ?name h in
  Out_channel.with_open_bin path (fun oc -> output_string oc text)
