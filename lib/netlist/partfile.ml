module Hg = Hypergraph.Hgraph

type t = {
  circuit : string;
  delta : float;
  block_devices : string array;
  assignment : (string * int) list;
  node_lines : int list;
}

(* Validating constructor: every failure names the offending cell and
   its node index so a serving loop can report the mismatch (the
   classic one: an ECO-delta'd netlist paired with a stale partition)
   per-request instead of aborting the process. *)
let of_assignment_checked hg ~circuit ~delta ~block_devices ~assignment =
  let n = Hg.num_nodes hg in
  if Array.length assignment <> n then
    Error
      (Printf.sprintf
         "assignment covers %d node(s) but circuit %S has %d — netlist and \
          partition are out of sync"
         (Array.length assignment) circuit n)
  else begin
    let k = Array.length block_devices in
    let bad = ref None in
    Array.iteri
      (fun v b ->
        if !bad = None && (b < 0 || b >= k) then
          bad :=
            Some
              (Printf.sprintf
                 "node %S (index %d) assigned to block %d outside [0, %d)"
                 (Hg.name hg v) v b k))
      assignment;
    match !bad with
    | Some e -> Error e
    | None ->
      let assignment_list =
        Hg.fold_nodes (fun acc v -> (Hg.name hg v, assignment.(v)) :: acc) [] hg
        |> List.rev
      in
      Ok { circuit; delta; block_devices; assignment = assignment_list; node_lines = [] }
  end

let of_assignment hg ~circuit ~delta ~block_devices ~assignment =
  match of_assignment_checked hg ~circuit ~delta ~block_devices ~assignment with
  | Ok t -> t
  | Error e -> invalid_arg ("Partfile.of_assignment: " ^ e)

let to_string t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "# fpart partition\n";
  Buffer.add_string buf (Printf.sprintf "circuit %s\n" t.circuit);
  Buffer.add_string buf (Printf.sprintf "delta %.4f\n" t.delta);
  Buffer.add_string buf (Printf.sprintf "blocks %d\n" (Array.length t.block_devices));
  Array.iteri
    (fun i d -> Buffer.add_string buf (Printf.sprintf "block %d device %s\n" i d))
    t.block_devices;
  List.iter
    (fun (name, b) -> Buffer.add_string buf (Printf.sprintf "node %s %d\n" name b))
    t.assignment;
  Buffer.contents buf

let parse_string text =
  let lines = String.split_on_char '\n' text in
  let circuit = ref None in
  let delta = ref 1.0 in
  let blocks = ref None in
  let devices : (int * string) list ref = ref [] in
  let nodes = ref [] in
  let node_ls = ref [] in
  let err lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  let rec go lineno = function
    | [] -> (
      match (!circuit, !blocks) with
      | None, _ -> Error "missing 'circuit' line"
      | _, None -> Error "missing 'blocks' line"
      | Some c, Some k ->
        let block_devices = Array.make k "?" in
        List.iter
          (fun (i, d) -> if i >= 0 && i < k then block_devices.(i) <- d)
          !devices;
        Ok
          {
            circuit = c;
            delta = !delta;
            block_devices;
            assignment = List.rev !nodes;
            node_lines = List.rev !node_ls;
          })
    | line :: rest -> (
      let line = String.trim line in
      let tokens =
        String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
      in
      match tokens with
      | [] -> go (lineno + 1) rest
      | tok :: _ when tok.[0] = '#' -> go (lineno + 1) rest
      | [ "circuit"; name ] ->
        circuit := Some name;
        go (lineno + 1) rest
      | [ "delta"; d ] -> (
        match float_of_string_opt d with
        | Some f ->
          delta := f;
          go (lineno + 1) rest
        | None -> err lineno "bad delta")
      | [ "blocks"; k ] -> (
        match int_of_string_opt k with
        | Some k when k >= 1 ->
          blocks := Some k;
          go (lineno + 1) rest
        | _ -> err lineno "bad block count")
      | [ "block"; i; "device"; d ] -> (
        match int_of_string_opt i with
        | Some i ->
          devices := (i, d) :: !devices;
          go (lineno + 1) rest
        | None -> err lineno "bad block line")
      | [ "node"; name; b ] -> (
        match int_of_string_opt b with
        | Some b ->
          nodes := (name, b) :: !nodes;
          node_ls := lineno :: !node_ls;
          go (lineno + 1) rest
        | None -> err lineno "bad node line")
      | _ -> err lineno (Printf.sprintf "unrecognised line %S" line))
  in
  go 1 lines

let write_file path t =
  (* render first: a rendering error must not leave an empty file *)
  let text = to_string t in
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let parse_file path = Result.bind (Textfile.read path) parse_string

(* Position of the [i]-th assignment entry for error messages: the
   original file line when the value came from the parser, the entry
   ordinal otherwise. *)
let entry_pos t i =
  match List.nth_opt t.node_lines i with
  | Some line -> Printf.sprintf "line %d" line
  | None -> Printf.sprintf "entry %d" (i + 1)

let apply t hg =
  let k = Array.length t.block_devices in
  let by_name = Hashtbl.create (Hg.num_nodes hg * 2) in
  Hg.iter_nodes (fun v -> Hashtbl.replace by_name (Hg.name hg v) v) hg;
  let assignment = Array.make (Hg.num_nodes hg) (-1) in
  let error = ref None in
  List.iteri
    (fun i (name, b) ->
      if !error = None then
        match Hashtbl.find_opt by_name name with
        | None ->
          error :=
            Some
              (Printf.sprintf "%s: node %S is not in the circuit" (entry_pos t i)
                 name)
        | Some v ->
          if b < 0 || b >= k then
            error :=
              Some
                (Printf.sprintf "%s: node %S assigned to block %d outside [0, %d)"
                   (entry_pos t i) name b k)
          else assignment.(v) <- b)
    t.assignment;
  match !error with
  | Some e -> Error e
  | None ->
    let missing = ref [] in
    Array.iteri
      (fun v b -> if b < 0 then missing := Hg.name hg v :: !missing)
      assignment;
    (match List.rev !missing with
    | [] -> Ok (assignment, k)
    | [ name ] -> Error (Printf.sprintf "node %S has no assignment" name)
    | name :: rest ->
      Error
        (Printf.sprintf "%d nodes have no assignment (first: %S)"
           (List.length rest + 1) name))
