module Hg = Hypergraph.Hgraph
module Rng = Prng.Splitmix

type policy = Pairs | Agglomerate

(* Nets fatter than this carry no locality signal (clock/reset-style
   broadcast); skipping them keeps a matching pass O(pins). *)
let net_degree_cap = 64

let compute ~policy ~max_weight ~seed hg =
  if max_weight < 1 then invalid_arg "Matching.compute: max_weight < 1";
  let n = Hg.num_nodes hg in
  (* group.(v) = tag of v's group (a fine node id); -1 while unmatched *)
  let group = Array.make n (-1) in
  let score = Array.make n 0.0 in
  let touched = Array.make n 0 in
  let ntouched = ref 0 in
  let reset_scores () =
    for i = 0 to !ntouched - 1 do
      score.(touched.(i)) <- 0.0
    done;
    ntouched := 0
  in
  (* Add m's connectivity into [score] for every eligible neighbour:
     2-pin nets (cones) count double, fat nets are skipped. *)
  let add_contributions m =
    Array.iter
      (fun e ->
        let d = Hg.net_degree hg e in
        if d >= 2 && d <= net_degree_cap then begin
          let w = if d = 2 then 2.0 else 1.0 /. float_of_int (d - 1) in
          Array.iter
            (fun u ->
              if
                u <> m && group.(u) < 0 && not (Hg.is_pad hg u)
              then begin
                if score.(u) = 0.0 then begin
                  touched.(!ntouched) <- u;
                  incr ntouched
                end;
                score.(u) <- score.(u) +. w
              end)
            (Hg.pins hg e)
        end)
      (Hg.nets_of hg m)
  in
  (* Best touched candidate under the running group size; ties break to
     the lowest id so the result is independent of net layout order. *)
  let best_candidate gsize =
    let best = ref (-1) and best_score = ref 0.0 in
    for i = 0 to !ntouched - 1 do
      let u = touched.(i) in
      if group.(u) < 0 && gsize + Hg.size hg u <= max_weight then
        if
          score.(u) > !best_score
          || (score.(u) = !best_score && !best >= 0 && u < !best)
        then begin
          best := u;
          best_score := score.(u)
        end
    done;
    !best
  in
  let order =
    let cells = ref [] in
    for v = n - 1 downto 0 do
      if not (Hg.is_pad hg v) then cells := v :: !cells
    done;
    let a = Array.of_list !cells in
    Rng.shuffle (Rng.create seed) a;
    a
  in
  Array.iter
    (fun v0 ->
      if group.(v0) < 0 then begin
        match policy with
        | Pairs ->
          let sz = Hg.size hg v0 in
          if sz < max_weight then begin
            (* mark v0 ineligible for self-scoring via a temp tag *)
            group.(v0) <- v0;
            add_contributions v0;
            let u = best_candidate sz in
            reset_scores ();
            if u >= 0 then begin
              let tag = min v0 u in
              group.(v0) <- tag;
              group.(u) <- tag
            end
          end
          else group.(v0) <- v0
        | Agglomerate ->
          group.(v0) <- v0;
          let gsize = ref (Hg.size hg v0) in
          add_contributions v0;
          let stop = ref false in
          while not !stop do
            let u = best_candidate !gsize in
            if u < 0 then stop := true
            else begin
              group.(u) <- v0;
              gsize := !gsize + Hg.size hg u;
              score.(u) <- 0.0;
              add_contributions u;
              if !gsize >= max_weight then stop := true
            end
          done;
          reset_scores ()
      end)
    order;
  (* pads (and any leftover) stay singletons *)
  for v = 0 to n - 1 do
    if group.(v) < 0 then group.(v) <- v
  done;
  (* densify group tags into coarse ids, numbered by lowest member id *)
  let map = Array.make n (-1) in
  let id_of_tag = Array.make n (-1) in
  let next = ref 0 in
  for v = 0 to n - 1 do
    let tag = group.(v) in
    if id_of_tag.(tag) < 0 then begin
      id_of_tag.(tag) <- !next;
      incr next
    end;
    map.(v) <- id_of_tag.(tag)
  done;
  (map, !next)
