module State = Partition.State

let argbest st ~except ~better =
  let best = ref None in
  for i = 0 to State.k st - 1 do
    if i <> except then
      match !best with
      | None -> best := Some i
      | Some j -> if better i j then best := Some i
  done;
  !best

let min_size_block st ~except =
  argbest st ~except ~better:(fun i j -> State.size_of st i < State.size_of st j)

let min_io_block st ~except =
  argbest st ~except ~better:(fun i j -> State.pins_of st i < State.pins_of st j)

let max_free_block st ~except ~s_max ~t_max =
  let free i =
    Config.free_space ~s_max ~t_max ~size:(State.size_of st i)
      ~pins:(State.pins_of st i)
  in
  argbest st ~except ~better:(fun i j -> free i > free j)
