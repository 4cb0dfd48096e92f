(** FPGA device models.

    A device [D = (S_MAX, T_MAX)] is characterised by its logic capacity
    in basic cells (CLBs) and its terminal (IOB pin) count, following
    section 2 of the paper.  The effective capacity is derated by a
    user-chosen filling ratio [delta]: [S_MAX = S_ds * delta], where
    [S_ds] is the data-sheet value.  The paper uses [delta = 0.9] for
    the XC3000 family and [delta = 1.0] for the XC2064. *)

type family =
  | XC2000  (** Xilinx XC2000 series (first-generation CLBs). *)
  | XC3000  (** Xilinx XC3000 series. *)

type t = {
  dev_name : string;  (** Data-sheet name, e.g. ["XC3020"]. *)
  family : family;
  s_ds : int;         (** Data-sheet CLB count. *)
  t_max : int;        (** IOB pin count. *)
}

(** {1 The catalog used in the paper's evaluation} *)

(** 64 CLBs, 58 IOBs, XC2000 family. *)
val xc2064 : t

(** 64 CLBs, 64 IOBs. *)
val xc3020 : t

(** 144 CLBs, 96 IOBs. *)
val xc3042 : t

(** 320 CLBs, 144 IOBs. *)
val xc3090 : t

(** 100 CLBs, 74 IOBs, XC2000 family. *)
val xc2018 : t

(** 100 CLBs, 80 IOBs. *)
val xc3030 : t

(** 224 CLBs, 120 IOBs. *)
val xc3064 : t

(** {1 Virtual scale devices}

    Not in the paper: capacities scaled up (XC3000 family rules, so
    [delta = 0.9] and 2 FFs/CLB) for the 10^5–10^6-cell circuits the
    multilevel engine targets, keeping the block count in the paper's
    usual M ≈ 10 range at that scale. *)

(** 1250 CLBs, 600 IOBs — for ~10^4-cell circuits. *)
val v1250 : t

(** 12500 CLBs, 2048 IOBs — for ~10^5-cell circuits. *)
val v12500 : t

(** The paper's four devices (Tables 2-5 order), then the rest of the
    two families, then the virtual scale devices. *)
val catalog : t list

(** [find name] looks a device up by (case-insensitive) name. *)
val find : string -> t option

(** {1 Derived quantities} *)

(** [s_max d ~delta] is the derated logic capacity
    [floor (S_ds * delta)].  @raise Invalid_argument unless
    [0 < delta <= 1] (a NaN [delta] raises too). *)
val s_max : t -> delta:float -> int

(** [paper_delta d] is the filling ratio the paper used for [d]: 1.0 for
    the XC2064 and 0.9 for the XC3000-family devices. *)
val paper_delta : t -> float

(** [ff_max d ~delta] is the flip-flop capacity of the derated device:
    one FF per CLB on the XC2000 family, two on the XC3000 family (the
    "rarely critical" additional resource of the paper's section 2). *)
val ff_max : t -> delta:float -> int option

(** [feasible d ~delta ~size ~pins] is [P |= D]: [size <= S_MAX] and
    [pins <= T_MAX]. *)
val feasible : t -> delta:float -> size:int -> pins:int -> bool

(** [lower_bound d ~delta ~total_size ~total_pads] is the lower bound
    [M = max (ceil (S_0 / S_MAX)) (ceil (|Y_0| / T_MAX))] on the number
    of devices needed (section 2).  The logic term divides by the real
    derated capacity [S_ds · delta] rather than the floored {!s_max};
    this is the convention that reproduces every M printed in the
    paper's tables.  @raise Invalid_argument unless [0 < delta <= 1]. *)
val lower_bound : t -> delta:float -> total_size:int -> total_pads:int -> int

(** [io_critical d ~delta ~total_size ~total_pads] is [true] when the
    pin term dominates the lower bound
    ([ceil (S_0/S_MAX) <= ceil (|Y_0|/T_MAX)]); such designs need the
    external-I/O balancing factor of section 3.4. *)
val io_critical : t -> delta:float -> total_size:int -> total_pads:int -> bool

val pp : Format.formatter -> t -> unit
