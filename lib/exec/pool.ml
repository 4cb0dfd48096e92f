module Metrics = Fpart_obs.Metrics
module Recorder = Fpart_obs.Recorder
module Resource = Fpart_obs.Resource

(* One batch of tasks, fanned out by index.  [next] and [unfinished] are
   only touched under the pool mutex; [run i] itself executes unlocked. *)
type batch = {
  run : int -> unit;
  size : int;
  mutable next : int;
  mutable unfinished : int;
}

type shared = {
  mutex : Mutex.t;
  work : Condition.t;  (* workers wait here for a batch *)
  idle : Condition.t;  (* the submitting caller waits here for the join *)
  mutable pending : batch option;
  mutable stop : bool;
}

type t = {
  jobs : int;
  shared : shared;
  workers : unit Domain.t array;  (* jobs - 1 entries *)
  mutable active : bool;  (* a batch is in flight (caller domain only) *)
  mutable closed : bool;
}

(* Set on pool worker domains; lets task code detect that it is already
   running inside a fork (nested forks then degrade to inline), and
   lets the task wrapper know its metrics need snapshotting back. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let take_index sh =
  (* under sh.mutex *)
  match sh.pending with
  | Some b when b.next < b.size ->
    b.next <- b.next + 1;
    Some (b, b.next - 1)
  | _ -> None

let finish_one sh b =
  Mutex.lock sh.mutex;
  b.unfinished <- b.unfinished - 1;
  if b.unfinished = 0 then Condition.broadcast sh.idle;
  Mutex.unlock sh.mutex

let worker_loop sh =
  Domain.DLS.set in_worker true;
  let running = ref true in
  while !running do
    Mutex.lock sh.mutex;
    let job = ref None in
    while
      (not sh.stop)
      &&
      match take_index sh with
      | Some ji -> job := Some ji; false
      | None -> true
    do
      Condition.wait sh.work sh.mutex
    done;
    Mutex.unlock sh.mutex;
    match !job with
    | None -> running := false (* stop requested *)
    | Some (b, i) ->
      b.run i;
      finish_one sh b
  done

let create ~jobs =
  if jobs < 1 then invalid_arg "Fpart_exec.Pool.create: jobs < 1";
  let shared =
    {
      mutex = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      pending = None;
      stop = false;
    }
  in
  let workers =
    Array.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop shared))
  in
  { jobs; shared; workers; active = false; closed = false }

let jobs t = t.jobs

let shutdown t =
  if not t.closed then begin
    t.closed <- true;
    let sh = t.shared in
    Mutex.lock sh.mutex;
    sh.stop <- true;
    Condition.broadcast sh.work;
    Mutex.unlock sh.mutex;
    Array.iter Domain.join t.workers
  end

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Fork [size] tasks and join.  The caller participates in running
   tasks, so a 1-job pool has no worker domains and executes everything
   inline — the exact sequential path.  Re-entrant calls (from a task on
   any domain) and calls on a closed pool also run inline. *)
let run_batch t ~size ~run =
  if size > 0 then begin
    let inline () =
      for i = 0 to size - 1 do
        run i
      done
    in
    if Domain.DLS.get in_worker then inline ()
    else begin
      let sh = t.shared in
      Mutex.lock sh.mutex;
      if t.active || t.closed then begin
        Mutex.unlock sh.mutex;
        inline ()
      end
      else begin
        t.active <- true;
        let b = { run; size; next = 0; unfinished = size } in
        sh.pending <- Some b;
        Condition.broadcast sh.work;
        let continue = ref true in
        while !continue do
          match take_index sh with
          | Some (b, i) ->
            Mutex.unlock sh.mutex;
            b.run i;
            finish_one sh b;
            Mutex.lock sh.mutex
          | None -> continue := false
        done;
        while b.unfinished > 0 do
          Condition.wait sh.idle sh.mutex
        done;
        sh.pending <- None;
        t.active <- false;
        Mutex.unlock sh.mutex
      end
    end
  end

type 'b cell = Pending | Done of 'b | Raised of exn * Printexc.raw_backtrace

let map t f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let results = Array.make n Pending in
    let snaps = Array.make n None in
    let wmarks = Array.make n None in
    let rsnaps = Array.make n Recorder.empty_snapshot in
    let flows = Array.make n None in
    let home = Domain.self () in
    let run i =
      (* A task run away from the calling domain is bracketed by
         resource readings whose delta the caller adopts at the join. *)
      let sampling = Resource.enabled () in
      let before =
        if sampling && Domain.self () <> home then Some (Resource.sample ()) else None
      in
      (* Every task — including those the caller runs itself — records
         spans into a task-local capture, so the join can replay them
         in task index order: the emitted id/parent/order stream is
         then independent of how tasks were scheduled across domains. *)
      let (), rsnap =
        Recorder.capture (fun () ->
            results.(i) <-
              (match f i arr.(i) with
              | v -> Done v
              | exception e -> Raised (e, Printexc.get_raw_backtrace ())))
      in
      rsnaps.(i) <- rsnap;
      (* An adopted delta counts its closing reading, so every task
         closes with one: caller flows then do not depend on scheduling. *)
      if sampling then begin
        let after = Resource.sample () in
        Option.iter (fun before -> flows.(i) <- Some (Resource.delta ~before ~after)) before
      end;
      (* hand this task's metric activity back to the caller; tasks the
         caller ran itself accumulated in the right cells already.
         Resource peak watermarks travel the same way — max-merged at
         the join, so a post-join summary on the caller reflects peaks
         only a worker domain observed. *)
      if Domain.DLS.get in_worker then begin
        snaps.(i) <- Some (Metrics.snapshot_and_reset ());
        wmarks.(i) <- Some (Resource.snapshot_watermark ())
      end
    in
    run_batch t ~size:n ~run;
    Array.iter Recorder.merge rsnaps;
    Array.iter (function Some s -> Metrics.merge s | None -> ()) snaps;
    Array.iter (function Some w -> Resource.merge_watermark w | None -> ()) wmarks;
    Array.iter (Option.iter Resource.adopt) flows;
    Array.map
      (function
        | Done v -> v
        | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
        | Pending -> assert false)
      results
  end

let map_seeded t ~master_seed f arr =
  map t
    (fun i x -> f ~rng:(Prng.Splitmix.derive ~master:master_seed ~index:i) i x)
    arr

let run_all t thunks =
  let arr = Array.of_list thunks in
  Array.to_list (map t (fun _ f -> f ()) arr)

let both t f g =
  let wrapped =
    [| (fun () -> `Fst (f ())); (fun () -> `Snd (g ())) |]
  in
  match map t (fun _ h -> h ()) wrapped with
  | [| `Fst a; `Snd b |] -> (a, b)
  | _ -> assert false
