(** A built routing together with the paper's quantitative claims about
    it and the metadata fault-injection needs to attack it. *)

type claim = {
  diameter_bound : int;  (** claimed bound [d] *)
  max_faults : int;  (** tolerated fault count [f] *)
  source : string;  (** e.g. "Theorem 13" *)
}
(** The routing is claimed to be [(d, f)]-tolerant. *)

(** Which concentrator shape the construction is built around; this is
    what {!module:Properties} needs to check the lemma-level
    properties. *)
type structure =
  | Separator of int list  (** kernel: a minimal separating set *)
  | Neighborhood of { members : int list; window : int }
      (** circular: a neighborhood set and the CIRC 2 window size *)
  | Tri_rings of { members : int list; ring : int; within_window : int }
      (** tri-circular: three rings of [ring] members each *)
  | Two_poles of { r1 : int; r2 : int }
      (** bipolar: the two-trees roots ([M1/M2] are their neighbor
          sets) *)
  | Unstructured  (** baselines with no concentrator *)

type t = {
  name : string;
  routing : Routing.t;
  concentrator : int list;  (** the set [M] of the construction *)
  structure : structure;
  pools : int list list;
      (** vertex pools the proofs identify as critical; adversarial
          fault generation draws subsets from each *)
  claims : claim list;
}

val claim : bound:int -> faults:int -> string -> claim

val bound_for : t -> f:int -> int option
(** The tightest diameter bound any claim promises while tolerating at
    least [f] faults; [None] when [f] exceeds every claim's fault
    budget (beyond-budget exploration). This is the "proven (d, f)
    budget" the attack CLI, the soak harness and the serve layer all
    gate on. *)

val fault_budget : t -> int
(** The largest fault count any claim tolerates; 0 when there are no
    claims. *)

val strongest_claim : t -> claim
(** The claim with the smallest diameter bound (ties broken by larger
    fault count). Raises [Invalid_argument] on an empty claim list. *)

val pp : Format.formatter -> t -> unit
