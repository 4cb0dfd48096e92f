(* Vec: the resizable vector used by hypergraph builders. *)

module Vec = Hypergraph.Vec

let test_empty () =
  let v = Vec.create () in
  Alcotest.(check int) "length" 0 (Vec.length v);
  Alcotest.(check (array int)) "to_array" [||] (Vec.to_array v)

let test_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get 0" 0 (Vec.get v 0);
  Alcotest.(check int) "get 99" (99 * 99) (Vec.get v 99)

let test_set () =
  let v = Vec.make 3 7 in
  Vec.set v 1 42;
  Alcotest.(check (array int)) "after set" [| 7; 42; 7 |] (Vec.to_array v)

let test_out_of_bounds () =
  let v = Vec.make 2 0 in
  Alcotest.check_raises "get -1" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v (-1)));
  Alcotest.check_raises "get 2" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v 2));
  Alcotest.check_raises "set 5" (Invalid_argument "Vec: index out of bounds")
    (fun () -> Vec.set v 5 1)

let test_iter_order () =
  let v = Vec.create () in
  List.iter (Vec.push v) [ 3; 1; 4; 1; 5 ];
  let out = ref [] in
  Vec.iter (fun x -> out := x :: !out) v;
  Alcotest.(check (list int)) "push order" [ 3; 1; 4; 1; 5 ] (List.rev !out)

let test_iteri () =
  let v = Vec.create () in
  List.iter (Vec.push v) [ 10; 20; 30 ];
  let out = ref [] in
  Vec.iteri (fun i x -> out := (i, x) :: !out) v;
  Alcotest.(check (list (pair int int)))
    "indexed" [ (0, 10); (1, 20); (2, 30) ] (List.rev !out)

let test_fold () =
  let v = Vec.create () in
  List.iter (Vec.push v) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "sum" 10 (Vec.fold ( + ) 0 v)

let test_clear () =
  let v = Vec.create () in
  Vec.push v 1;
  Vec.push v 2;
  Vec.clear v;
  Alcotest.(check int) "cleared" 0 (Vec.length v);
  Vec.push v 9;
  Alcotest.(check int) "reusable" 9 (Vec.get v 0)

let test_truncate () =
  let v = Vec.create () in
  List.iter (Vec.push v) [ 1; 2; 3; 4 ];
  Vec.set v 1 4;
  Vec.truncate v 2;
  Alcotest.(check (array int)) "kept prefix" [| 1; 4 |] (Vec.to_array v);
  Vec.push v 7;
  Alcotest.(check int) "push after truncate" 7 (Vec.get v 2);
  Alcotest.check_raises "longer than length"
    (Invalid_argument "Vec.truncate: length out of bounds") (fun () -> Vec.truncate v 4)

let test_make () =
  let v = Vec.make 4 'x' in
  Alcotest.(check int) "length" 4 (Vec.length v);
  Vec.push v 'y';
  Alcotest.(check char) "pushed after make" 'y' (Vec.get v 4)

let prop_roundtrip =
  QCheck.Test.make ~count:200 ~name:"to_array reflects pushes"
    QCheck.(list int)
    (fun xs ->
      let v = Vec.create () in
      List.iter (Vec.push v) xs;
      Vec.to_array v = Array.of_list xs)

let prop_growth =
  QCheck.Test.make ~count:50 ~name:"length equals number of pushes"
    QCheck.(int_bound 2000)
    (fun n ->
      let v = Vec.create () in
      for i = 1 to n do
        Vec.push v i
      done;
      Vec.length v = n)

let () =
  Alcotest.run "vec"
    [
      ( "unit",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "push/get" `Quick test_push_get;
          Alcotest.test_case "set" `Quick test_set;
          Alcotest.test_case "bounds" `Quick test_out_of_bounds;
          Alcotest.test_case "iter order" `Quick test_iter_order;
          Alcotest.test_case "iteri" `Quick test_iteri;
          Alcotest.test_case "fold" `Quick test_fold;
          Alcotest.test_case "clear" `Quick test_clear;
          Alcotest.test_case "make" `Quick test_make;
          Alcotest.test_case "truncate" `Quick test_truncate;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest [ prop_roundtrip; prop_growth ] );
    ]
