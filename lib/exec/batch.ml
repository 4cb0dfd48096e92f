type error = Crashed of { exn : string; backtrace : string }

let error_to_string (Crashed { exn; _ }) = Printf.sprintf "crashed: %s" exn

let run ~pool ~f jobs =
  let arr = Array.of_list jobs in
  let results =
    Pool.map pool
      (fun _i job ->
        match f job with
        | v -> Ok v
        | exception e ->
          Error
            (Crashed
               {
                 exn = Printexc.to_string e;
                 backtrace = Printexc.get_backtrace ();
               }))
      arr
  in
  Array.to_list results
