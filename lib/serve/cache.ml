type t = {
  tbl : (string, Protocol.success) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable bytes_est : int;
}

let create () = { tbl = Hashtbl.create 64; hits = 0; misses = 0; bytes_est = 0 }

let key ~netlist_digest ~device ~config_digest =
  Printf.sprintf "%s|%s|%s" netlist_digest device config_digest

let find t k =
  match Hashtbl.find_opt t.tbl k with
  | Some s ->
    t.hits <- t.hits + 1;
    Some s
  | None ->
    t.misses <- t.misses + 1;
    None

(* Estimated retained bytes of one entry: the key, the dominant string
   payloads of the success record, and a flat allowance for the record,
   the hashtable bucket and the small fixed fields.  An estimate is
   enough — the gauge exists so an unbounded cache is visible, not to
   account the heap exactly. *)
let entry_cost k (s : Protocol.success) =
  String.length k
  + String.length s.Protocol.partition
  + String.length s.Protocol.netlist_digest
  + String.length s.Protocol.config_digest
  + String.length s.Protocol.cache
  + String.length s.Protocol.mode
  + 160

let add t k s =
  (match Hashtbl.find_opt t.tbl k with
  | Some old -> t.bytes_est <- t.bytes_est - entry_cost k old
  | None -> ());
  Hashtbl.replace t.tbl k s;
  t.bytes_est <- t.bytes_est + entry_cost k s

let hits t = t.hits

let misses t = t.misses

let size t = Hashtbl.length t.tbl

let bytes_est t = t.bytes_est
