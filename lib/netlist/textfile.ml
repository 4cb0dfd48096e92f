let reason ~path msg =
  let prefix = path ^ ": " in
  let n = String.length prefix in
  if String.starts_with ~prefix msg then String.sub msg n (String.length msg - n)
  else msg

let read path =
  try Ok (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error msg -> Error (reason ~path msg)
