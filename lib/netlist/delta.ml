module Hg = Hypergraph.Hgraph

type cell = {
  cell_name : string;
  size : int;
  flops : int;
}

type net = {
  net_name : string;
  pins : string list;
}

type t = {
  remove_nodes : string list;
  remove_nets : string list;
  add_cells : cell list;
  add_pads : string list;
  add_nets : net list;
}

let empty =
  {
    remove_nodes = [];
    remove_nets = [];
    add_cells = [];
    add_pads = [];
    add_nets = [];
  }

let summary d =
  Printf.sprintf "-%d nodes -%d nets +%d cells +%d pads +%d nets"
    (List.length d.remove_nodes)
    (List.length d.remove_nets)
    (List.length d.add_cells) (List.length d.add_pads)
    (List.length d.add_nets)

let apply d hg =
  let exception Fail of string in
  try
    let removed_nodes = Hashtbl.create 16 in
    List.iter (fun n -> Hashtbl.replace removed_nodes n ()) d.remove_nodes;
    let removed_nets = Hashtbl.create 16 in
    List.iter (fun n -> Hashtbl.replace removed_nets n ()) d.remove_nets;
    (* every removal must name something present — a silent no-op here
       usually means the request paired the delta with the wrong base *)
    let node_names = Hashtbl.create (Hg.num_nodes hg * 2) in
    Hg.iter_nodes (fun v -> Hashtbl.replace node_names (Hg.name hg v) v) hg;
    List.iter
      (fun n ->
        if not (Hashtbl.mem node_names n) then
          raise (Fail (Printf.sprintf "remove node %S: no such node" n)))
      d.remove_nodes;
    let net_names = Hashtbl.create (Hg.num_nets hg * 2) in
    Hg.iter_nets (fun e -> Hashtbl.replace net_names (Hg.net_name hg e) ()) hg;
    List.iter
      (fun n ->
        if not (Hashtbl.mem net_names n) then
          raise (Fail (Printf.sprintf "remove net %S: no such net" n)))
      d.remove_nets;
    let b = Hg.Builder.create () in
    let ids = Hashtbl.create (Hg.num_nodes hg * 2) in
    let add_named name id = Hashtbl.replace ids name id in
    Hg.iter_nodes
      (fun v ->
        let name = Hg.name hg v in
        if not (Hashtbl.mem removed_nodes name) then
          let id =
            if Hg.is_pad hg v then Hg.Builder.add_pad b ~name
            else
              Hg.Builder.add_cell b ~flops:(Hg.flops hg v) ~name
                ~size:(Hg.size hg v)
          in
          add_named name id)
      hg;
    let check_fresh what name =
      if Hashtbl.mem ids name then
        raise
          (Fail (Printf.sprintf "add %s %S: name already in circuit" what name))
    in
    List.iter
      (fun c ->
        check_fresh "cell" c.cell_name;
        if c.size <= 0 then
          raise (Fail (Printf.sprintf "add cell %S: size must be > 0" c.cell_name));
        if c.flops < 0 then
          raise (Fail (Printf.sprintf "add cell %S: flops must be >= 0" c.cell_name));
        add_named c.cell_name
          (Hg.Builder.add_cell b ~flops:c.flops ~name:c.cell_name ~size:c.size))
      d.add_cells;
    List.iter
      (fun name ->
        check_fresh "pad" name;
        add_named name (Hg.Builder.add_pad b ~name))
      d.add_pads;
    Hg.iter_nets
      (fun e ->
        let name = Hg.net_name hg e in
        if not (Hashtbl.mem removed_nets name) then begin
          let pins =
            Array.to_list (Hg.pins hg e)
            |> List.filter_map (fun v -> Hashtbl.find_opt ids (Hg.name hg v))
          in
          (* a net whose every pin was removed disappears with them *)
          if pins <> [] then ignore (Hg.Builder.add_net b ~name pins)
        end)
      hg;
    List.iter
      (fun n ->
        if n.pins = [] then
          raise (Fail (Printf.sprintf "add net %S: no pins" n.net_name));
        let pins =
          List.map
            (fun p ->
              match Hashtbl.find_opt ids p with
              | Some id -> id
              | None ->
                raise
                  (Fail
                     (Printf.sprintf "add net %S: unknown pin %S" n.net_name p)))
            n.pins
        in
        ignore (Hg.Builder.add_net b ~name:n.net_name pins))
      d.add_nets;
    Ok (Hg.Builder.freeze b)
  with Fail msg -> Error msg

(* --- text form ----------------------------------------------------- *)

let to_string d =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "# fpart delta\n";
  List.iter (fun n -> Buffer.add_string buf (Printf.sprintf "remove node %s\n" n))
    d.remove_nodes;
  List.iter (fun n -> Buffer.add_string buf (Printf.sprintf "remove net %s\n" n))
    d.remove_nets;
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "add cell %s %d %d\n" c.cell_name c.size c.flops))
    d.add_cells;
  List.iter (fun n -> Buffer.add_string buf (Printf.sprintf "add pad %s\n" n))
    d.add_pads;
  List.iter
    (fun n ->
      Buffer.add_string buf
        (Printf.sprintf "add net %s %s\n" n.net_name (String.concat " " n.pins)))
    d.add_nets;
  Buffer.contents buf

let parse_string text =
  let lines = String.split_on_char '\n' text in
  let d = ref empty in
  let err lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  let rec go lineno = function
    | [] ->
      let d = !d in
      (* accumulators are reversed by construction *)
      Ok
        {
          remove_nodes = List.rev d.remove_nodes;
          remove_nets = List.rev d.remove_nets;
          add_cells = List.rev d.add_cells;
          add_pads = List.rev d.add_pads;
          add_nets = List.rev d.add_nets;
        }
    | line :: rest -> (
      let line = String.trim line in
      let tokens =
        String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
      in
      match tokens with
      | [] -> go (lineno + 1) rest
      | tok :: _ when tok.[0] = '#' -> go (lineno + 1) rest
      | [ "remove"; "node"; n ] ->
        d := { !d with remove_nodes = n :: !d.remove_nodes };
        go (lineno + 1) rest
      | [ "remove"; "net"; n ] ->
        d := { !d with remove_nets = n :: !d.remove_nets };
        go (lineno + 1) rest
      | "add" :: "cell" :: name :: size :: flops -> (
        let flops =
          match flops with
          | [] -> Some 0
          | [ f ] -> int_of_string_opt f
          | _ -> None
        in
        match (int_of_string_opt size, flops) with
        | Some size, Some flops when size > 0 && flops >= 0 ->
          d :=
            { !d with add_cells = { cell_name = name; size; flops } :: !d.add_cells };
          go (lineno + 1) rest
        | _ -> err lineno "bad add-cell line (want: add cell NAME SIZE [FLOPS])")
      | [ "add"; "pad"; n ] ->
        d := { !d with add_pads = n :: !d.add_pads };
        go (lineno + 1) rest
      | "add" :: "net" :: name :: (_ :: _ as pins) ->
        d := { !d with add_nets = { net_name = name; pins } :: !d.add_nets };
        go (lineno + 1) rest
      | _ -> err lineno (Printf.sprintf "unrecognised line %S" line))
  in
  go 1 lines
