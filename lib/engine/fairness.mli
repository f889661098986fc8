(** Finite-prefix bookkeeping for the fairness condition (Def. 2.4). *)

type report = {
  unread_channels : Channel.id list;
      (** tracked channels ({!View.tracked}) never read in the prefix *)
  max_gap : (Channel.id * int) list;
      (** per channel, the longest stretch of steps without a read *)
}

val analyze : Spp.Instance.t -> Activation.t list -> report

type counts = {
  processed : (Channel.id * int) list;  (** messages a step consumed per channel *)
  dropped : (Channel.id * int) list;  (** of those, the ones it dropped *)
}

val replayed_cycle_is_fair :
  tracked:Channel.id list -> (Activation.t * counts) list -> bool
(** Whether repeating a cycle forever yields a fair execution, judged from
    what each of its steps did, for any protocol: every [tracked] channel
    is read, and every channel with a dropped message also has a read
    that kept one (an All-read that drops only its second message still
    keeps its first). *)

val cycle_is_fair : Spp.Instance.t -> Activation.t list -> bool
(** {!replayed_cycle_is_fair} from the entries alone, without running
    them: a read with drops counts as dropping and keeping nothing, and a
    dropless read with a positive message count as keeping a message.
    Conservative where a replay is not: it rejects an All-read that drops
    only its second message. *)
