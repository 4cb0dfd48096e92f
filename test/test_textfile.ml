(* Textfile: the one whole-file reader behind every netlist format, the
   partition files and the service's server-side sources. *)

module Textfile = Netlist.Textfile

let with_temp contents f =
  let path = Filename.temp_file "fpart_textfile" ".txt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents);
      f path)

let with_temp_dir f =
  let dir = Filename.temp_dir "fpart_textfile" "" in
  Fun.protect ~finally:(fun () -> Sys.rmdir dir) (fun () -> f dir)

let read_ok path =
  match Textfile.read path with
  | Ok s -> s
  | Error e -> Alcotest.failf "read %s: %s" path e

let test_whole_content () =
  (* NUL, CR LF, a high byte and no final newline come back byte for byte *)
  let contents = "a\000b\r\nline two\n\255\254tail" in
  with_temp contents (fun path ->
      Alcotest.(check string) "byte-exact" contents (read_ok path))

let test_empty_file () =
  with_temp "" (fun path -> Alcotest.(check string) "empty" "" (read_ok path))

let test_directory () =
  with_temp_dir (fun dir ->
      Alcotest.(check (result string string)) "directory"
        (Error "Is a directory") (Textfile.read dir))

let test_missing_file () =
  with_temp_dir (fun dir ->
      Alcotest.(check (result string string)) "missing"
        (Error "No such file or directory")
        (Textfile.read (Filename.concat dir "absent.blif")))

(* No channel outlives a read, on the error path as on the success path:
   the lowest free descriptor is the same before and after many reads. *)
let test_channels_closed () =
  let lowest_free () =
    let fd = Unix.openfile Filename.null [ Unix.O_RDONLY ] 0 in
    Unix.close fd;
    fd
  in
  with_temp_dir (fun dir ->
      with_temp "x" (fun file ->
          let before = lowest_free () in
          for _ = 1 to 200 do
            ignore (Textfile.read dir);
            ignore (Textfile.read file);
            ignore (Textfile.read (Filename.concat dir "absent"))
          done;
          Alcotest.(check bool) "no descriptor leaked" true (lowest_free () = before)))

let test_reason () =
  Alcotest.(check string) "prefix dropped" "Is a directory"
    (Textfile.reason ~path:"a/b" "a/b: Is a directory");
  Alcotest.(check string) "other path kept" "a/bc: Is a directory"
    (Textfile.reason ~path:"a/b" "a/bc: Is a directory");
  Alcotest.(check string) "no prefix kept" "Bad file descriptor"
    (Textfile.reason ~path:"a/b" "Bad file descriptor")

let prop_round_trip =
  QCheck.Test.make ~count:50 ~name:"read returns what was written"
    QCheck.(string_of_size (Gen.int_range 0 5000))
    (fun contents -> with_temp contents (fun path -> Textfile.read path = Ok contents))

let () =
  Alcotest.run "textfile"
    [
      ( "unit",
        [
          Alcotest.test_case "whole content" `Quick test_whole_content;
          Alcotest.test_case "empty file" `Quick test_empty_file;
          Alcotest.test_case "directory is an error" `Quick test_directory;
          Alcotest.test_case "missing file is an error" `Quick test_missing_file;
          Alcotest.test_case "channels closed" `Quick test_channels_closed;
          Alcotest.test_case "reason drops the path prefix" `Quick test_reason;
        ] );
      ("property", List.map QCheck_alcotest.to_alcotest [ prop_round_trip ]);
    ]
