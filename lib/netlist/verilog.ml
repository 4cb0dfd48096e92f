module Hg = Hypergraph.Hgraph

type modul = { mod_name : string; graph : Hg.t }

(* ------------------------------------------------------------------ *)
(* Lexer                                                              *)
(* ------------------------------------------------------------------ *)

type token =
  | Ident of string
  | Number of string
  | Punct of char  (* ( ) , ; = . # *)
  | Eof

type lexer = {
  text : string;
  mutable pos : int;
  mutable line : int;
}

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '$' || c = '\\'

let is_digit c = c >= '0' && c <= '9'

let rec skip_ws lx =
  let n = String.length lx.text in
  if lx.pos >= n then ()
  else
    match lx.text.[lx.pos] with
    | '\n' ->
      lx.line <- lx.line + 1;
      lx.pos <- lx.pos + 1;
      skip_ws lx
    | ' ' | '\t' | '\r' ->
      lx.pos <- lx.pos + 1;
      skip_ws lx
    | '/' when lx.pos + 1 < n && lx.text.[lx.pos + 1] = '/' ->
      while lx.pos < n && lx.text.[lx.pos] <> '\n' do
        lx.pos <- lx.pos + 1
      done;
      skip_ws lx
    | '/' when lx.pos + 1 < n && lx.text.[lx.pos + 1] = '*' ->
      lx.pos <- lx.pos + 2;
      let closed = ref false in
      while (not !closed) && lx.pos < n do
        if lx.text.[lx.pos] = '\n' then lx.line <- lx.line + 1;
        if
          lx.text.[lx.pos] = '*'
          && lx.pos + 1 < n
          && lx.text.[lx.pos + 1] = '/'
        then begin
          closed := true;
          lx.pos <- lx.pos + 2
        end
        else lx.pos <- lx.pos + 1
      done;
      skip_ws lx
    | _ -> ()

let next_token lx =
  skip_ws lx;
  let n = String.length lx.text in
  if lx.pos >= n then Eof
  else
    let c = lx.text.[lx.pos] in
    if is_digit c then begin
      let start = lx.pos in
      while lx.pos < n && (is_ident_char lx.text.[lx.pos] || lx.text.[lx.pos] = '\'') do
        lx.pos <- lx.pos + 1
      done;
      Number (String.sub lx.text start (lx.pos - start))
    end
    else if is_ident_char c then begin
      let start = lx.pos in
      while lx.pos < n && is_ident_char lx.text.[lx.pos] do
        lx.pos <- lx.pos + 1
      done;
      Ident (String.sub lx.text start (lx.pos - start))
    end
    else begin
      lx.pos <- lx.pos + 1;
      Punct c
    end

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of int * string

type instance = {
  inst_label : string;
  inst_size : int;
  inst_flops : int;
  inst_signals : string list;
}

type parsed = {
  p_name : string;
  p_inputs : string list;
  p_outputs : string list;
  p_instances : instance list;
}

type parser_state = {
  lx : lexer;
  mutable tok : token;
}

let advance ps = ps.tok <- next_token ps.lx

let fail ps fmt =
  Format.kasprintf (fun s -> raise (Parse_error (ps.lx.line, s))) fmt

let expect_punct ps c =
  match ps.tok with
  | Punct c' when c' = c -> advance ps
  | _ -> fail ps "expected '%c'" c

let expect_ident ps =
  match ps.tok with
  | Ident s ->
    advance ps;
    s
  | _ -> fail ps "expected an identifier"

let ident_list ps =
  (* ident (, ident)* ; *)
  let rec go acc =
    let id = expect_ident ps in
    match ps.tok with
    | Punct ',' ->
      advance ps;
      go (id :: acc)
    | Punct ';' ->
      advance ps;
      List.rev (id :: acc)
    | _ -> fail ps "expected ',' or ';' in declaration"
  in
  go []

(* #(.SIZE(3), .FLOPS(1)) or #(3) — returns (size, flops) *)
let parameters ps =
  expect_punct ps '(';
  let size = ref 1 and flops = ref 0 in
  let rec entries () =
    (match ps.tok with
    | Punct '.' ->
      advance ps;
      let name = expect_ident ps in
      expect_punct ps '(';
      let value =
        match ps.tok with
        | Number v ->
          advance ps;
          int_of_string_opt v
        | _ -> fail ps "expected a number in parameter"
      in
      expect_punct ps ')';
      (match (String.uppercase_ascii name, value) with
      | "SIZE", Some v -> size := v
      | "FLOPS", Some v -> flops := v
      | _ -> () (* foreign parameters ignored *))
    | Number v ->
      advance ps;
      (match int_of_string_opt v with Some v -> size := v | None -> ())
    | _ -> fail ps "expected a parameter");
    match ps.tok with
    | Punct ',' ->
      advance ps;
      entries ()
    | Punct ')' -> advance ps
    | _ -> fail ps "expected ',' or ')' in parameter list"
  in
  entries ();
  (!size, !flops)

(* connection list: (sig, sig) or (.port(sig), .port(sig)); returns signals *)
let connections ps =
  expect_punct ps '(';
  let signals = ref [] in
  let rec go () =
    (match ps.tok with
    | Punct '.' ->
      advance ps;
      let _port = expect_ident ps in
      expect_punct ps '(';
      (match ps.tok with
      | Ident s ->
        advance ps;
        signals := s :: !signals
      | Punct ')' -> () (* unconnected port: .P() *)
      | _ -> fail ps "expected a signal in named connection");
      expect_punct ps ')'
    | Ident s ->
      advance ps;
      signals := s :: !signals
    | _ -> fail ps "expected a connection");
    match ps.tok with
    | Punct ',' ->
      advance ps;
      go ()
    | Punct ')' -> advance ps
    | _ -> fail ps "expected ',' or ')' in connection list"
  in
  (match ps.tok with
  | Punct ')' -> advance ps (* empty list *)
  | _ -> go ());
  List.rev !signals

let parse ps =
  (match ps.tok with
  | Ident "module" -> advance ps
  | _ -> fail ps "expected 'module'");
  let name = expect_ident ps in
  (* port list is redundant with input/output declarations: skip it *)
  (match ps.tok with
  | Punct '(' ->
    let depth = ref 1 in
    advance ps;
    while !depth > 0 do
      (match ps.tok with
      | Punct '(' -> incr depth
      | Punct ')' -> decr depth
      | Eof -> fail ps "unterminated port list"
      | _ -> ());
      if !depth > 0 then advance ps else advance ps
    done
  | _ -> ());
  expect_punct ps ';';
  let inputs = ref [] and outputs = ref [] in
  let instances = ref [] in
  let count = ref 0 in
  let fresh () =
    incr count;
    Printf.sprintf "_i%d" !count
  in
  let rec body () =
    match ps.tok with
    | Ident "endmodule" -> ()
    | Eof -> fail ps "missing 'endmodule'"
    | Ident "input" ->
      advance ps;
      inputs := !inputs @ ident_list ps;
      body ()
    | Ident ("output" | "inout") ->
      advance ps;
      outputs := !outputs @ ident_list ps;
      body ()
    | Ident "wire" ->
      advance ps;
      ignore (ident_list ps);
      body ()
    | Ident "assign" ->
      advance ps;
      let lhs = expect_ident ps in
      expect_punct ps '=';
      let rhs = expect_ident ps in
      expect_punct ps ';';
      instances :=
        { inst_label = fresh (); inst_size = 1; inst_flops = 0;
          inst_signals = [ lhs; rhs ] }
        :: !instances;
      body ()
    | Ident _type_name ->
      advance ps;
      let size, flops =
        match ps.tok with
        | Punct '#' ->
          advance ps;
          parameters ps
        | _ -> (1, 0)
      in
      let label =
        match ps.tok with
        | Ident l ->
          advance ps;
          l
        | _ -> fresh ()
      in
      let signals = connections ps in
      expect_punct ps ';';
      instances :=
        { inst_label = label; inst_size = size; inst_flops = flops;
          inst_signals = signals }
        :: !instances;
      body ()
    | _ -> fail ps "unexpected token in module body"
  in
  body ();
  {
    p_name = name;
    p_inputs = !inputs;
    p_outputs = !outputs;
    p_instances = List.rev !instances;
  }

let build parsed =
  let b = Hg.Builder.create () in
  let nets : (string, int list ref) Hashtbl.t = Hashtbl.create 256 in
  let touch signal node =
    match Hashtbl.find_opt nets signal with
    | Some l -> l := node :: !l
    | None -> Hashtbl.add nets signal (ref [ node ])
  in
  List.iter
    (fun inst ->
      if inst.inst_size < 1 then
        raise (Parse_error (0, Printf.sprintf "instance %s has SIZE < 1" inst.inst_label));
      if inst.inst_flops < 0 then
        raise (Parse_error (0, Printf.sprintf "instance %s has FLOPS < 0" inst.inst_label));
      let id =
        Hg.Builder.add_cell b ~flops:inst.inst_flops ~name:inst.inst_label
          ~size:inst.inst_size
      in
      List.iter (fun s -> touch s id) (List.sort_uniq compare inst.inst_signals))
    parsed.p_instances;
  let add_pads role signals =
    List.iteri
      (fun i s ->
        let id = Hg.Builder.add_pad b ~name:(Printf.sprintf "%s_%s%d" s role i) in
        touch s id)
      signals
  in
  add_pads "in" parsed.p_inputs;
  add_pads "out" parsed.p_outputs;
  let signals = Hashtbl.fold (fun s _ acc -> s :: acc) nets [] |> List.sort compare in
  List.iter
    (fun s ->
      let pins = List.sort_uniq compare !(Hashtbl.find nets s) in
      if List.length pins >= 2 then ignore (Hg.Builder.add_net b ~name:s pins))
    signals;
  { mod_name = parsed.p_name; graph = Hg.Builder.freeze b }

let parse_string text =
  let lx = { text; pos = 0; line = 1 } in
  let ps = { lx; tok = Eof } in
  try
    advance ps;
    let parsed = parse ps in
    let m = build parsed in
    match Hg.validate m.graph with
    | Ok () -> Ok m
    | Error msg -> Error ("internal: invalid hypergraph from Verilog: " ^ msg)
  with
  | Parse_error (line, msg) -> Error (Printf.sprintf "line %d: %s" line msg)
  | Invalid_argument msg -> Error msg

let parse_file path = Result.bind (Textfile.read path) parse_string

(* ------------------------------------------------------------------ *)
(* Printing                                                           *)
(* ------------------------------------------------------------------ *)

(* Verilog identifiers must start with a letter or underscore and use
   [A-Za-z0-9_$]; sanitise generated names just in case. *)
let sanitize name =
  let ok c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = '$'
  in
  let s = String.map (fun c -> if ok c then c else '_') name in
  if s = "" then "_"
  else if (s.[0] >= '0' && s.[0] <= '9') || s.[0] = '$' then "_" ^ s
  else s

let to_string m =
  let h = m.graph in
  let buf = Buffer.create 4096 in
  (* port signal per pad: the name of its single net; pads with several
     nets are not expressible as one port *)
  let pad_signal v =
    match Hg.nets_of h v with
    | [| e |] -> sanitize (Hg.net_name h e)
    | nets ->
      invalid_arg
        (Printf.sprintf "Verilog.to_string: pad %s has %d nets (expected 1)"
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
  let ins = List.rev !ins and outs = List.rev !outs in
  Buffer.add_string buf
    (Printf.sprintf "module %s (%s);\n" (sanitize m.mod_name)
       (String.concat ", " (ins @ outs)));
  let decl kw = function
    | [] -> ()
    | l -> Buffer.add_string buf (Printf.sprintf "  %s %s;\n" kw (String.concat ", " l))
  in
  decl "input" ins;
  decl "output" outs;
  (* wires: nets not exposed as ports *)
  let port_signals = List.sort_uniq compare (ins @ outs) in
  let wires = ref [] in
  Hg.iter_nets
    (fun e ->
      let s = sanitize (Hg.net_name h e) in
      if not (List.mem s port_signals) then wires := s :: !wires)
    h;
  decl "wire" (List.rev !wires);
  Hg.iter_cells
    (fun v ->
      let signals =
        Array.to_list (Hg.nets_of h v)
        |> List.map (fun e -> sanitize (Hg.net_name h e))
      in
      match signals with
      | [] -> () (* isolated cell: not expressible; dropped with nets intact *)
      | _ ->
        Buffer.add_string buf
          (Printf.sprintf "  FPART_CELL #(.SIZE(%d), .FLOPS(%d)) %s (%s);\n"
             (Hg.size h v) (Hg.flops h v)
             (sanitize (Hg.name h v))
             (String.concat ", " signals)))
    h;
  Buffer.add_string buf "endmodule\n";
  Buffer.contents buf

let write_file path m =
  (* render first: a rendering error must not leave an empty file *)
  let text = to_string m in
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let of_hypergraph ~name h = { mod_name = name; graph = h }
