#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # vce-isis — a reproduction of the Isis Distributed Toolkit's core
//!
//! The paper's prototype (§5) is built directly on Isis 3.0:
//!
//! > "The scheduling/dispatching daemons are organized as an Isis process
//! > group. The first instance of the scheduler/dispatcher program to come
//! > on-line assumes the role of group leader ... Isis provides error
//! > notification functions which are used to allow the oldest surviving
//! > member of the group to assume the role of group leader in case the
//! > group leader fails. Machines can enter or leave the group at any time."
//! > "The prototype uses Isis `bcast` and `reply` primitives ..."
//!
//! Isis is long dead and was closed-source, so this crate rebuilds the
//! primitives the VCE consumes:
//!
//! * **Process groups with membership views** ([`View`]): coordinator-
//!   sequenced view installation, driven by a heartbeat failure detector
//!   of O(n) standing cost. Machines can join, leave or crash at any time.
//! * **Coordinator succession by seniority**: the oldest surviving member
//!   (smallest join sequence number) of the last installed view becomes
//!   coordinator — exactly the paper's leader-failover rule.
//! * **Reliable FIFO broadcast** ([`GroupMember::bcast`]): per-sender FIFO
//!   order with NACK-based retransmission — the one order §5's `bcast`
//!   needs. A cast is named ([`BcastId`]) by its sender and its place in
//!   that sender's stream, both of which the transport already carries,
//!   so a cast cannot speak for another member. Isis's causal (`cbcast`)
//!   and total (`abcast`) orders are not reproduced: the VCE never used
//!   them (DESIGN.md decision 37).
//! * **`bcast`/`reply` collection**: broadcast a request and gather one
//!   reply per member with a deadline — the primitive the VCE group leader
//!   uses to collect bids (Fig. 3).
//!
//! ## Honest weakenings (documented, tested around)
//!
//! Real Isis implemented full virtual synchrony (view-synchronous message
//! flushing on view change). We install views without a flush phase: a
//! message broadcast in view *v* may be delivered in view *v+1*. The VCE
//! scheduler tolerates this by construction (bids carry request ids;
//! stale replies are ignored), which is also how the original prototype
//! survived on Isis's weaker `fbcast`. DESIGN.md records this substitution.
//!
//! ## Embedding
//!
//! [`GroupMember`] is a *protocol object*, not an endpoint: the owning
//! endpoint (e.g. the VCE daemon) forwards it the [`IsisMsg`]s it receives,
//! its timer tokens (see [`is_isis_token`]), and processes the returned
//! [`Upcall`]s. Outgoing messages are wrapped by a caller-supplied function
//! so isis traffic can ride inside the application's own message enum.

pub mod collect;
pub mod detector;
pub mod member;
pub mod msg;
pub mod ordering;
pub mod view;

pub use detector::{ArrivalWindow, DetectorConfig, FlapState, QuarantineConfig};
pub use member::{GroupConfig, GroupMember, Upcall};
pub use msg::{BcastId, IsisMsg};
pub use view::{Member, View};

/// Base of the timer-token namespace reserved for isis protocol timers.
/// Embedding endpoints must not arm tokens at or above this value.
pub const ISIS_TOKEN_BASE: u64 = 1 << 48;

/// True if a timer token belongs to the isis layer and should be forwarded
/// to [`GroupMember::on_timer`].
pub fn is_isis_token(token: u64) -> bool {
    token >= ISIS_TOKEN_BASE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_namespace_split() {
        assert!(!is_isis_token(0));
        assert!(!is_isis_token(ISIS_TOKEN_BASE - 1));
        assert!(is_isis_token(ISIS_TOKEN_BASE));
        assert!(is_isis_token(u64::MAX));
    }
}
