let ( let* ) = Result.bind

let file path =
  if Filename.check_suffix path ".v" then
    let* m = Verilog.parse_file path in
    Ok (m.Verilog.mod_name, m.Verilog.graph)
  else if Filename.check_suffix path ".xnf" then
    let* d = Xnf.parse_file path in
    Ok (d.Xnf.design_name, d.Xnf.graph)
  else
    let* m = Blif.parse_file path in
    Ok (m.Blif.model_name, m.Blif.graph)

let generated spec = Ok ("generated", Generator.generate spec)

let generate spec ~seed =
  if String.length spec > 5 && String.sub spec 0 5 = "rent:" then
    (* rent:CELLS — Rent-rule family with pads = 3·sqrt(cells), the
       scale regime of the multilevel engine *)
    match int_of_string_opt (String.sub spec 5 (String.length spec - 5)) with
    | Some cells when cells >= 64 ->
      generated (Generator.rent_spec ~name:"rent" ~cells ~seed)
    | _ -> Error "expected rent:CELLS with CELLS >= 64"
  else
    let expected = "expected CELLSxPADS or rent:CELLS" in
    match String.split_on_char 'x' spec with
    | [ cells; pads ] -> (
      match (int_of_string_opt cells, int_of_string_opt pads) with
      | Some cells, Some pads when cells >= 2 && pads >= 1 ->
        generated (Generator.default_spec ~name:"gen" ~cells ~pads ~seed)
      | _ -> Error expected)
    | _ -> Error expected
