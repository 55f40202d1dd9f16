(** {!Transport} over the discrete-event {!Runtime}.

    Request-for-bids rounds become asynchronous RPC rounds
    ({!Runtime.gather_round}): per-attempt timeout, bounded retries with
    exponential backoff, injected crashes/drops/jitter.  The entire
    fault/timeout/retry discipline of the trading loop lives here — the
    trader only sees a round result with the cumulative written-off node
    set.  A target that stays silent (crashed, partitioned, every
    transmission dropped) is written off permanently: it is removed from
    all subsequent rounds' targets and reported through
    [round.failed]/[round.fresh_failures] so the caller can invalidate
    state that leans on it. *)

val create : Runtime.t -> buyer:int -> nodes:int list -> 'reply Transport.t
(** [create rt ~buyer ~nodes] registers the buyer and every seller node
    on the runtime (arming planned crash timers) and returns the
    transport.  [elapsed]/[account] read and advance the {e buyer}'s
    clock; messages and bytes come from the runtime's global counters. *)
