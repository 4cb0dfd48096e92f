(* Report: table renderer, published data and the experiment harness. *)

module Table = Report.Table
module Published = Report.Published
module Experiments = Report.Experiments

let test_table_render () =
  let s =
    Table.render ~title:"T" ~header:[ "a"; "bb" ]
      ~align:[ Table.Left ]
      [ [ "x"; "1" ]; [ "yy"; "22" ] ]
  in
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "line count" 5 (List.length lines);
  Alcotest.(check string) "title" "T" (List.nth lines 0);
  Alcotest.(check string) "header" "a   bb" (List.nth lines 1);
  Alcotest.(check string) "row pads" "x    1" (List.nth lines 3 |> fun _ -> List.nth lines 3)

let test_table_alignment () =
  let s =
    Table.render ~title:"t" ~header:[ "col" ] ~align:[ Table.Right ] [ [ "7" ] ]
  in
  Alcotest.(check bool) "right aligned" true
    (String.length s > 0 && String.split_on_char '\n' s |> fun l -> List.nth l 3 = "  7")

let test_table_short_row () =
  (* rows narrower than the header are padded with blanks *)
  let s = Table.render ~title:"t" ~header:[ "a"; "b" ] [ [ "x" ] ] in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let test_table_wide_row_rejected () =
  Alcotest.check_raises "too wide" (Invalid_argument "Table.render: row wider than header")
    (fun () -> ignore (Table.render ~title:"t" ~header:[ "a" ] [ [ "x"; "y" ] ]))

(* Published data sanity: the totals printed in the paper. *)
let sum f rows =
  List.fold_left (fun acc r -> acc + Option.value ~default:0 (f r)) 0 rows

let test_published_table2_totals () =
  Alcotest.(check int) "kwayx total" 210 (sum (fun r -> r.Published.kwayx) Published.table2);
  Alcotest.(check int) "fbb total" 183 (sum (fun r -> r.Published.fbb_mw) Published.table2);
  Alcotest.(check int) "fpart total" 180 (sum (fun r -> r.Published.fpart) Published.table2);
  Alcotest.(check int) "M total" 172
    (List.fold_left (fun acc r -> acc + r.Published.m) 0 Published.table2)

let test_published_table3_totals () =
  Alcotest.(check int) "kwayx" 94 (sum (fun r -> r.Published.kwayx) Published.table3);
  Alcotest.(check int) "fbb" 84 (sum (fun r -> r.Published.fbb_mw) Published.table3);
  Alcotest.(check int) "fpart" 84 (sum (fun r -> r.Published.fpart) Published.table3);
  Alcotest.(check int) "M" 81
    (List.fold_left (fun acc r -> acc + r.Published.m) 0 Published.table3)

let test_published_table4_totals () =
  (* paper prints the table in two halves: FPART 14 + 27, M 14 + 26 *)
  Alcotest.(check int) "fpart" 41 (sum (fun r -> r.Published.fpart) Published.table4);
  Alcotest.(check int) "M" 40
    (List.fold_left (fun acc r -> acc + r.Published.m) 0 Published.table4)

let test_published_table5_totals () =
  Alcotest.(check int) "kwayx" 42 (sum (fun r -> r.Published.kwayx) Published.table5);
  Alcotest.(check int) "fbb" 40 (sum (fun r -> r.Published.fbb_mw) Published.table5);
  Alcotest.(check int) "fpart" 40 (sum (fun r -> r.Published.fpart) Published.table5);
  Alcotest.(check int) "M" 39
    (List.fold_left (fun acc r -> acc + r.Published.m) 0 Published.table5)

let test_published_find () =
  (match Published.find Published.table2 "s38584" with
  | Some r -> Alcotest.(check (option int)) "fpart" (Some 52) r.Published.fpart
  | None -> Alcotest.fail "missing s38584");
  Alcotest.(check bool) "unknown" true (Published.find Published.table2 "zzz" = None)

let test_published_cell () =
  Alcotest.(check string) "some" "7" (Published.cell (Some 7));
  Alcotest.(check string) "none" "-" (Published.cell None)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* Experiments: memoisation and small-table generation.  Use the
   smallest circuit/device pair to keep the suite fast. *)
let test_run_one_memoised () =
  let calls = ref 0 in
  let t = Experiments.create ~progress:(fun _ -> incr calls) () in
  let c = Option.get (Netlist.Mcnc.find "c3540") in
  let r1 = Experiments.run_one t Experiments.Fpart_algo c Device.xc3090 in
  let r2 = Experiments.run_one t Experiments.Fpart_algo c Device.xc3090 in
  Alcotest.(check int) "one fresh run" 1 !calls;
  Alcotest.(check int) "same k" r1.Experiments.k r2.Experiments.k;
  Alcotest.(check bool) "plausible k" true (r1.Experiments.k >= 1)

let test_figures_render () =
  let t = Experiments.create () in
  let f2 = Experiments.figure2 t in
  Alcotest.(check bool) "figure2 mentions semi-feasible" true
    (contains ~affix:"semi-feasible" f2);
  let f3 = Experiments.figure3 t in
  Alcotest.(check bool) "figure3 mentions remainder" true
    (contains ~affix:"remainder" f3)

let test_table1_renders () =
  let t = Experiments.create () in
  let s = Experiments.table1 t in
  List.iter
    (fun circuit ->
      Alcotest.(check bool) (circuit ^ " present") true
        (contains ~affix:circuit s))
    [ "c3540"; "s38584" ]

(* The sweep varies the harness config, not the published defaults:
   under the multilevel engine every row is what [Solve.run] gives at
   that filling ratio. *)
let test_delta_sweep_follows_config () =
  let config = { Fpart.Config.default with engine = Fpart.Config.Mlevel } in
  let table = Experiments.delta_sweep (Experiments.create ~config ()) in
  let hg =
    Netlist.Mcnc.surrogate (Option.get (Netlist.Mcnc.find "s9234")) Device.XC3000
  in
  let rows =
    String.split_on_char '\n' table
    |> List.map (fun l -> String.split_on_char ' ' l |> List.filter (( <> ) ""))
    |> List.filter_map (function
         | [ delta; _s_max; _m; k; _feasible; cut ] -> (
           match float_of_string_opt delta with
           | Some d -> Some (delta, d, int_of_string k, int_of_string cut)
           | None -> None)
         | _ -> None)
  in
  Alcotest.(check int) "five sweep rows" 5 (List.length rows);
  List.iter
    (fun (label, d, k, cut) ->
      let r = Solve.run { config with Fpart.Config.delta = Some d } hg Device.xc3020 in
      Alcotest.(check int) ("k at delta " ^ label) r.Fpart.Driver.k k;
      Alcotest.(check int) ("cut at delta " ^ label) r.Fpart.Driver.cut cut)
    rows

let () =
  Alcotest.run "report"
    [
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "alignment" `Quick test_table_alignment;
          Alcotest.test_case "short row" `Quick test_table_short_row;
          Alcotest.test_case "wide row" `Quick test_table_wide_row_rejected;
        ] );
      ( "published",
        [
          Alcotest.test_case "table2 totals" `Quick test_published_table2_totals;
          Alcotest.test_case "table3 totals" `Quick test_published_table3_totals;
          Alcotest.test_case "table4 totals" `Quick test_published_table4_totals;
          Alcotest.test_case "table5 totals" `Quick test_published_table5_totals;
          Alcotest.test_case "find" `Quick test_published_find;
          Alcotest.test_case "cell" `Quick test_published_cell;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "memoised" `Quick test_run_one_memoised;
          Alcotest.test_case "figures render" `Quick test_figures_render;
          Alcotest.test_case "table1 renders" `Quick test_table1_renders;
          Alcotest.test_case "delta sweep follows config" `Quick
            test_delta_sweep_follows_config;
        ] );
    ]
