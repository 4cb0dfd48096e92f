type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  (* [dummy] fills unused slots so we never keep references alive and can
     grow an empty vector without a witness value. *)
  mutable dummy : 'a option;
}

let create () = { data = [||]; len = 0; dummy = None }

let make n x = { data = Array.make (max n 1) x; len = n; dummy = Some x }

let length v = v.len

let grow v witness =
  let cap = Array.length v.data in
  if v.len >= cap then begin
    let ncap = max 8 (2 * cap) in
    let ndata = Array.make ncap witness in
    Array.blit v.data 0 ndata 0 v.len;
    v.data <- ndata
  end

let push v x =
  if v.dummy = None then v.dummy <- Some x;
  grow v x;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let check v i =
  if i < 0 || i >= v.len then invalid_arg "Vec: index out of bounds"

let get v i = check v i; v.data.(i)

let set v i x = check v i; v.data.(i) <- x

let to_array v = Array.sub v.data 0 v.len

let iter f v =
  for i = 0 to v.len - 1 do f v.data.(i) done

let iteri f v =
  for i = 0 to v.len - 1 do f i v.data.(i) done

let fold f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do acc := f !acc v.data.(i) done;
  !acc

let clear v = v.len <- 0

let truncate v n =
  if n < 0 || n > v.len then invalid_arg "Vec.truncate: length out of bounds";
  v.len <- n
