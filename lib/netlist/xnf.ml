module Hg = Hypergraph.Hgraph

type design = {
  design_name : string;
  part : string option;
  graph : Hg.t;
}

let fields line =
  String.split_on_char ',' line |> List.map String.trim |> List.filter (fun s -> s <> "")

(* SIZE=3 / FLOPS=1 attributes on SYM records *)
let parse_attr field =
  match String.index_opt field '=' with
  | Some i ->
    let key = String.uppercase_ascii (String.sub field 0 i) in
    let value = String.sub field (i + 1) (String.length field - i - 1) in
    Some (key, value)
  | None -> None

type open_sym = { sym_name : string; sym_size : int; sym_flops : int }

let parse_string ?(name = "xnf") text =
  let b = Hg.Builder.create () in
  let nets : (string, int list ref) Hashtbl.t = Hashtbl.create 256 in
  let touch signal node =
    match Hashtbl.find_opt nets signal with
    | Some l -> l := node :: !l
    | None -> Hashtbl.add nets signal (ref [ node ])
  in
  let part = ref None in
  let open_sym = ref None in
  let open_pins = ref [] in
  let pad_count = ref 0 in
  let err lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  let close_sym () =
    match !open_sym with
    | None -> Ok ()
    | Some sym ->
      if sym.sym_size < 1 then
        Error (Printf.sprintf "symbol %s has SIZE < 1" sym.sym_name)
      else begin
        let id =
          Hg.Builder.add_cell b ~flops:sym.sym_flops ~name:sym.sym_name
            ~size:sym.sym_size
        in
        List.iter (fun net -> touch net id) (List.sort_uniq compare !open_pins);
        open_sym := None;
        open_pins := [];
        Ok ()
      end
  in
  let rec go lineno lines =
    match lines with
    | [] -> (
      match !open_sym with
      | Some sym -> Error (Printf.sprintf "unterminated symbol %s" sym.sym_name)
      | None -> Ok ())
    | line :: rest -> (
      let line = String.trim line in
      if line = "" || line.[0] = '#' then go (lineno + 1) rest
      else
        match fields line with
        | [] -> go (lineno + 1) rest
        | record :: args -> (
          match (String.uppercase_ascii record, args) with
          | "LCANET", _ | "PROG", _ -> go (lineno + 1) rest
          | "PART", p :: _ ->
            part := Some p;
            go (lineno + 1) rest
          | "PART", [] -> err lineno "PART without a value"
          | "SYM", sym_name :: _typ :: attrs ->
            if !open_sym <> None then err lineno "nested SYM"
            else begin
              let size = ref 1 and flops = ref 0 in
              List.iter
                (fun f ->
                  match parse_attr f with
                  | Some ("SIZE", v) ->
                    (match int_of_string_opt v with Some v -> size := v | None -> ())
                  | Some ("FLOPS", v) ->
                    (match int_of_string_opt v with Some v -> flops := v | None -> ())
                  | _ -> ())
                attrs;
              open_sym := Some { sym_name; sym_size = !size; sym_flops = !flops };
              go (lineno + 1) rest
            end
          | "SYM", _ -> err lineno "SYM needs a name and a type"
          | "PIN", _pin :: _dir :: netname :: _ ->
            if !open_sym = None then err lineno "PIN outside SYM"
            else begin
              open_pins := netname :: !open_pins;
              go (lineno + 1) rest
            end
          | "PIN", _ -> err lineno "PIN needs name, direction and net"
          | "END", _ -> (
            match close_sym () with
            | Ok () -> go (lineno + 1) rest
            | Error e -> err lineno e)
          | "EXT", netname :: _ ->
            incr pad_count;
            let id =
              Hg.Builder.add_pad b ~name:(Printf.sprintf "%s_ext%d" netname !pad_count)
            in
            touch netname id;
            go (lineno + 1) rest
          | "EXT", [] -> err lineno "EXT without a net"
          | "EOF", _ -> (
            match !open_sym with
            | Some sym -> Error (Printf.sprintf "line %d: EOF inside symbol %s" lineno sym.sym_name)
            | None -> Ok ())
          | other, _ -> err lineno (Printf.sprintf "unknown record %S" other)))
  in
  match go 1 (String.split_on_char '\n' text) with
  | Error _ as e -> e
  | Ok () -> (
    let signals = Hashtbl.fold (fun s _ acc -> s :: acc) nets [] |> List.sort compare in
    List.iter
      (fun s ->
        let pins = List.sort_uniq compare !(Hashtbl.find nets s) in
        if List.length pins >= 2 then ignore (Hg.Builder.add_net b ~name:s pins))
      signals;
    let graph = Hg.Builder.freeze b in
    match Hg.validate graph with
    | Ok () -> Ok { design_name = name; part = !part; graph }
    | Error msg -> Error ("internal: invalid hypergraph from XNF: " ^ msg))

let parse_file path =
  Result.bind (Textfile.read path)
    (parse_string ~name:(Filename.remove_extension (Filename.basename path)))

let to_string d =
  let h = d.graph in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "LCANET, 4\n";
  Buffer.add_string buf (Printf.sprintf "PROG, fpart, %s\n" d.design_name);
  (match d.part with
  | Some p -> Buffer.add_string buf (Printf.sprintf "PART, %s\n" p)
  | None -> ());
  Hg.iter_cells
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "SYM, %s, CELL, SIZE=%d, FLOPS=%d\n" (Hg.name h v)
           (Hg.size h v) (Hg.flops h v));
      Array.iteri
        (fun i e ->
          Buffer.add_string buf
            (Printf.sprintf "PIN, P%d, B, %s\n" i (Hg.net_name h e)))
        (Hg.nets_of h v);
      Buffer.add_string buf "END\n")
    h;
  Hg.iter_pads
    (fun v ->
      match Hg.nets_of h v with
      | [| e |] -> Buffer.add_string buf (Printf.sprintf "EXT, %s, B\n" (Hg.net_name h e))
      | nets ->
        invalid_arg
          (Printf.sprintf "Xnf.to_string: pad %s has %d nets (expected 1)"
             (Hg.name h v) (Array.length nets)))
    h;
  Buffer.add_string buf "EOF\n";
  Buffer.contents buf

let write_file path d =
  (* render first: a rendering error must not leave an empty file *)
  let text = to_string d in
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let of_hypergraph ?part ~name h = { design_name = name; part; graph = h }
