let run (config : Fpart.Config.t) hg device =
  match config.engine with
  | Fpart.Config.Flat -> Fpart.Driver.run_best ~config ~runs:config.runs hg device
  | Fpart.Config.Mlevel -> (Mlevel.Engine.run ~base:config hg device).Mlevel.Engine.res
