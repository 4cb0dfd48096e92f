(* Bucket_array and Direction_set: the FM gain bucket machinery. *)

module B = Gainbucket.Bucket_array
module D = Gainbucket.Direction_set

let test_empty () =
  let b = B.create ~cells:8 ~max_gain:4 () in
  Alcotest.(check int) "cardinal" 0 (B.cardinal b);
  Alcotest.(check bool) "is_empty" true (B.is_empty b);
  Alcotest.(check bool) "no top" true (B.top_gain b = None)

let test_insert_top () =
  let b = B.create ~cells:8 ~max_gain:4 () in
  B.insert b 0 (-2);
  B.insert b 1 3;
  B.insert b 2 0;
  Alcotest.(check int) "cardinal" 3 (B.cardinal b);
  Alcotest.(check bool) "top" true (B.top_gain b = Some 3);
  Alcotest.(check int) "gain_of" (-2) (B.gain_of b 0)

let test_fifo_order () =
  let b = B.create ~discipline:B.Fifo ~cells:8 ~max_gain:4 () in
  B.insert b 0 2;
  B.insert b 1 2;
  B.insert b 2 2;
  (* head is the oldest *)
  let top = B.fold_top b ~limit:3 ~init:[] ~f:(fun acc c -> c :: acc) in
  Alcotest.(check (list int)) "FIFO" [ 0; 1; 2 ] (List.rev top);
  B.remove b 1;
  let top = B.fold_top b ~limit:3 ~init:[] ~f:(fun acc c -> c :: acc) in
  Alcotest.(check (list int)) "FIFO after middle removal" [ 0; 2 ] (List.rev top);
  match B.check b with Ok () -> () | Error e -> Alcotest.fail e

let test_lifo_order () =
  let b = B.create ~cells:8 ~max_gain:4 () in
  B.insert b 0 2;
  B.insert b 1 2;
  B.insert b 2 2;
  (* head is the most recently inserted *)
  let top = B.fold_top b ~limit:3 ~init:[] ~f:(fun acc c -> c :: acc) in
  Alcotest.(check (list int)) "LIFO" [ 2; 1; 0 ] (List.rev top)

let test_fold_top_limit () =
  let b = B.create ~cells:8 ~max_gain:4 () in
  for c = 0 to 5 do
    B.insert b c 1
  done;
  let n = B.fold_top b ~limit:2 ~init:0 ~f:(fun acc _ -> acc + 1) in
  Alcotest.(check int) "limit respected" 2 n

let test_remove () =
  let b = B.create ~cells:8 ~max_gain:4 () in
  B.insert b 0 4;
  B.insert b 1 1;
  B.remove b 0;
  Alcotest.(check bool) "top drops" true (B.top_gain b = Some 1);
  Alcotest.(check bool) "gone" false (B.mem b 0);
  B.remove b 0;
  (* removing an absent cell is a no-op *)
  Alcotest.(check int) "cardinal" 1 (B.cardinal b)

let test_remove_middle () =
  let b = B.create ~cells:8 ~max_gain:4 () in
  B.insert b 0 2;
  B.insert b 1 2;
  B.insert b 2 2;
  B.remove b 1;
  let top = B.fold_top b ~limit:8 ~init:[] ~f:(fun acc c -> c :: acc) in
  Alcotest.(check (list int)) "links intact" [ 2; 0 ] (List.rev top);
  match B.check b with Ok () -> () | Error e -> Alcotest.fail e

let test_update () =
  let b = B.create ~cells:8 ~max_gain:4 () in
  B.insert b 0 0;
  B.insert b 1 0;
  B.update b 0 4;
  Alcotest.(check bool) "top rises" true (B.top_gain b = Some 4);
  B.update b 0 (-4);
  Alcotest.(check bool) "top falls" true (B.top_gain b = Some 0);
  Alcotest.(check int) "gain updated" (-4) (B.gain_of b 0)

let test_errors () =
  let b = B.create ~cells:4 ~max_gain:2 () in
  B.insert b 0 0;
  Alcotest.check_raises "double insert"
    (Invalid_argument "Bucket_array.insert: cell already present") (fun () ->
      B.insert b 0 1);
  Alcotest.check_raises "gain range"
    (Invalid_argument "Bucket_array.insert: gain out of range") (fun () ->
      B.insert b 1 3);
  Alcotest.check_raises "gain_of absent"
    (Invalid_argument "Bucket_array.gain_of: absent cell") (fun () ->
      ignore (B.gain_of b 2));
  Alcotest.check_raises "update absent"
    (Invalid_argument "Bucket_array.update: absent cell") (fun () -> B.update b 2 0)

let test_clear () =
  let b = B.create ~cells:8 ~max_gain:4 () in
  for c = 0 to 7 do
    B.insert b c ((c mod 9) - 4)
  done;
  B.clear b;
  Alcotest.(check int) "cardinal" 0 (B.cardinal b);
  Alcotest.(check bool) "no top" true (B.top_gain b = None);
  B.insert b 3 2;
  Alcotest.(check bool) "reusable" true (B.top_gain b = Some 2)

(* Model-based property: random op sequences match a naive map model. *)
let prop_model =
  let open QCheck in
  Test.make ~count:200 ~name:"bucket matches naive model"
    (small_list (triple (int_bound 2) (int_bound 15) (int_range (-8) 8)))
    (fun ops ->
      let b = B.create ~cells:16 ~max_gain:8 () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (op, cell, gain) ->
          match op with
          | 0 ->
            if not (Hashtbl.mem model cell) then begin
              B.insert b cell gain;
              Hashtbl.add model cell gain
            end
          | 1 ->
            B.remove b cell;
            Hashtbl.remove model cell
          | _ ->
            if Hashtbl.mem model cell then begin
              B.update b cell gain;
              Hashtbl.replace model cell gain
            end)
        ops;
      let model_top = Hashtbl.fold (fun _ g acc -> max g acc) model min_int in
      let top_ok =
        match B.top_gain b with
        | None -> Hashtbl.length model = 0
        | Some g -> g = model_top
      in
      top_ok
      && B.cardinal b = Hashtbl.length model
      && B.check b = Ok ()
      && Hashtbl.fold (fun c g acc -> acc && B.mem b c && B.gain_of b c = g) model true)

(* Workload counters: one logical update must tick [bucket.updates]
   once and leave the insert/remove counters alone (the historical
   remove+insert implementation double-counted), and an equal-gain
   update must tick nothing. *)
let test_update_counters () =
  let module Obs = Fpart_obs.Metrics in
  let inserts () = Obs.counter_value (Obs.counter "bucket.inserts") in
  let removes () = Obs.counter_value (Obs.counter "bucket.removes") in
  let updates () = Obs.counter_value (Obs.counter "bucket.updates") in
  let b = B.create ~cells:8 ~max_gain:4 () in
  B.insert b 0 0;
  B.insert b 1 2;
  let i0 = inserts () and r0 = removes () and u0 = updates () in
  B.update b 0 3;
  Alcotest.(check int) "one update tick" (u0 + 1) (updates ());
  Alcotest.(check int) "no phantom insert" i0 (inserts ());
  Alcotest.(check int) "no phantom remove" r0 (removes ());
  B.update b 0 3;
  Alcotest.(check int) "equal-gain update is free" (u0 + 1) (updates ());
  Alcotest.(check int) "equal-gain: no insert" i0 (inserts ());
  Alcotest.(check int) "equal-gain: no remove" r0 (removes ());
  B.remove b 1;
  Alcotest.(check int) "remove ticks removes" (r0 + 1) (removes ());
  Alcotest.(check int) "remove does not tick updates" (u0 + 1) (updates ())

(* Direction_set: all mutations go through the set so its top index
   stays exact. *)

let dirs_ok d =
  match D.check d with Ok () -> () | Error e -> Alcotest.fail e

let test_dirs_best () =
  let d = D.create ~directions:3 ~cells:8 ~max_gain:4 () in
  D.insert d ~dir:0 0 1;
  D.insert d ~dir:1 1 3;
  D.insert d ~dir:2 2 3;
  Alcotest.(check bool) "best gain" true (D.best_gain d = Some 3);
  Alcotest.(check (list int)) "best dirs" [ 1; 2 ] (D.best_dirs d);
  D.update d ~dir:1 1 (-2);
  Alcotest.(check (list int)) "update retargets" [ 2 ] (D.best_dirs d);
  D.remove d ~dir:2 2;
  Alcotest.(check bool) "best falls back" true (D.best_gain d = Some 1);
  Alcotest.(check (list int)) "dir 0 now best" [ 0 ] (D.best_dirs d);
  dirs_ok d

let test_dirs_disable () =
  let d = D.create ~directions:2 ~cells:4 ~max_gain:4 () in
  D.insert d ~dir:0 0 4;
  D.insert d ~dir:1 1 1;
  D.set_enabled d 0 false;
  Alcotest.(check bool) "disabled skipped" true (D.best_gain d = Some 1);
  Alcotest.(check (list int)) "only dir 1" [ 1 ] (D.best_dirs d);
  D.set_enabled d 0 true;
  Alcotest.(check bool) "re-enabled" true (D.best_gain d = Some 4);
  (* mutations while disabled must still land in the index on re-enable *)
  D.set_enabled d 1 false;
  D.update d ~dir:1 1 4;
  Alcotest.(check (list int)) "disabled update invisible" [ 0 ] (D.best_dirs d);
  D.set_enabled d 1 true;
  Alcotest.(check (list int)) "visible after re-enable" [ 0; 1 ] (D.best_dirs d);
  dirs_ok d

let test_dirs_totals_clear () =
  let d = D.create ~directions:2 ~cells:4 ~max_gain:4 () in
  D.insert d ~dir:0 0 1;
  D.insert d ~dir:1 1 1;
  D.set_enabled d 1 false;
  Alcotest.(check int) "total cells" 2 (D.total_cells d);
  D.clear d;
  Alcotest.(check int) "cleared" 0 (D.total_cells d);
  Alcotest.(check bool) "re-enabled by clear" true (D.enabled d 1);
  Alcotest.(check bool) "empty best" true (D.best_dirs d = []);
  dirs_ok d

(* Model-based property for the top index: after a random op sequence,
   [best_gain]/[best_dirs] must equal a naive scan over the enabled
   buckets. *)
let prop_dirs_model =
  let open QCheck in
  Test.make ~count:200 ~name:"direction set matches naive scan"
    (small_list
       (quad (int_bound 3) (int_bound 3) (int_bound 7) (int_range (-6) 6)))
    (fun ops ->
      let dirs = 4 in
      let d = D.create ~directions:dirs ~cells:8 ~max_gain:6 () in
      List.iter
        (fun (op, dir, cell, gain) ->
          match op with
          | 0 -> if not (D.mem d ~dir cell) then D.insert d ~dir cell gain
          | 1 -> D.remove d ~dir cell
          | 2 -> if D.mem d ~dir cell then D.update d ~dir cell gain
          | _ -> D.set_enabled d dir (gain >= 0))
        ops;
      let naive_best = ref None in
      for dir = 0 to dirs - 1 do
        if D.enabled d dir then
          match B.top_gain (D.bucket d dir) with
          | Some g when (match !naive_best with None -> true | Some b -> g > b)
            ->
            naive_best := Some g
          | Some _ | None -> ()
      done;
      let naive_dirs =
        List.filter
          (fun dir ->
            D.enabled d dir && B.top_gain (D.bucket d dir) = !naive_best
            && !naive_best <> None)
          [ 0; 1; 2; 3 ]
      in
      D.best_gain d = !naive_best
      && D.best_dirs d = naive_dirs
      && D.check d = Ok ())

(* [clear] must leave a structure indistinguishable from a fresh one,
   whatever mix of inserts, removes, updates (and, for a direction set,
   disabled directions) came before it — not just after a full fill. *)

let cells = 16

let bucket_op b (op, cell, gain) =
  match op with
  | 0 -> if not (B.mem b cell) then B.insert b cell gain
  | 1 -> B.remove b cell
  | _ -> if B.mem b cell then B.update b cell gain

let top_order b = B.fold_top b ~limit:cells ~init:[] ~f:(fun acc c -> c :: acc)

let discipline_of fifo = if fifo then B.Fifo else B.Lifo

let prop_bucket_clear =
  let open QCheck in
  let ops = small_list (triple (int_bound 2) (int_bound (cells - 1)) (int_range (-8) 8)) in
  Test.make ~count:300 ~name:"cleared bucket behaves as a fresh one"
    (triple bool ops ops)
    (fun (fifo, before, after) ->
      let make () = B.create ~discipline:(discipline_of fifo) ~cells ~max_gain:8 () in
      let used = make () and fresh = make () in
      List.iter (bucket_op used) before;
      B.clear used;
      B.check used = Ok ()
      && B.cardinal used = 0
      && List.for_all (fun c -> not (B.mem used c)) (List.init cells Fun.id)
      && B.top_gain used = None
      && List.for_all
           (fun op ->
             bucket_op used op;
             bucket_op fresh op;
             top_order used = top_order fresh
             && B.top_gain used = B.top_gain fresh
             && B.cardinal used = B.cardinal fresh)
           after
      && B.check used = Ok ())

let dirs = 4

let dirs_op d (op, dir, cell, gain) =
  match op with
  | 0 -> if not (D.mem d ~dir cell) then D.insert d ~dir cell gain
  | 1 -> D.remove d ~dir cell
  | 2 -> if D.mem d ~dir cell then D.update d ~dir cell gain
  | _ -> D.set_enabled d dir (gain >= 0)

let same_dirs d1 d2 =
  D.best_gain d1 = D.best_gain d2
  && D.best_dirs d1 = D.best_dirs d2
  && List.for_all
       (fun dir -> top_order (D.bucket d1 dir) = top_order (D.bucket d2 dir))
       (List.init dirs Fun.id)

let prop_dirs_clear =
  let open QCheck in
  let ops =
    small_list
      (quad (int_bound 3) (int_bound (dirs - 1)) (int_bound (cells - 1))
         (int_range (-6) 6))
  in
  Test.make ~count:300 ~name:"cleared direction set behaves as a fresh one"
    (triple bool ops ops)
    (fun (fifo, before, after) ->
      let make () =
        D.create ~discipline:(discipline_of fifo) ~directions:dirs ~cells
          ~max_gain:6 ()
      in
      let used = make () and fresh = make () in
      List.iter (dirs_op used) before;
      D.clear used;
      let each_dir f = List.for_all f (List.init dirs Fun.id) in
      D.check used = Ok ()
      && D.total_cells used = 0
      && each_dir (fun dir ->
             List.for_all (fun c -> not (D.mem used ~dir c)) (List.init cells Fun.id))
      && D.best_gain used = None
      && D.best_dirs used = []
      && each_dir (D.enabled used)
      && List.for_all
           (fun op ->
             dirs_op used op;
             dirs_op fresh op;
             same_dirs used fresh)
           after
      && D.check used = Ok ())

let () =
  Alcotest.run "gainbucket"
    [
      ( "bucket",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "insert/top" `Quick test_insert_top;
          Alcotest.test_case "LIFO" `Quick test_lifo_order;
          Alcotest.test_case "FIFO" `Quick test_fifo_order;
          Alcotest.test_case "fold_top limit" `Quick test_fold_top_limit;
          Alcotest.test_case "remove" `Quick test_remove;
          Alcotest.test_case "remove middle" `Quick test_remove_middle;
          Alcotest.test_case "update" `Quick test_update;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "clear" `Quick test_clear;
          Alcotest.test_case "update counters" `Quick test_update_counters;
        ] );
      ( "directions",
        [
          Alcotest.test_case "best" `Quick test_dirs_best;
          Alcotest.test_case "disable" `Quick test_dirs_disable;
          Alcotest.test_case "totals/clear" `Quick test_dirs_totals_clear;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [ prop_model; prop_dirs_model; prop_bucket_clear; prop_dirs_clear ] );
    ]
