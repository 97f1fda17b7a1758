//! The deterministic half of `serve_ci.json`: the traffic mix replayed
//! through the daemon's own frame loop.
//!
//! The first `n` mix elements are framed into one in-memory connection,
//! which the daemon's real `serve_frames` and `respond` answer over
//! generation 1 of the corpus: the production parser, reader and
//! encoder, with no socket and no clock. Each answer is then checked
//! against the element that asked for it, and the daemon's own
//! accounting against the answers. The outcome holds only exact counts,
//! a pure function of `(seed, n, corpus)`.

use crate::daemon::{self, ServeError, ServeStats};
use crate::mix::{MixKind, TrafficMix};
use crate::protocol::{self, Response};
use routergeo_db::Rgdb2Reader;

/// Exact accounting of one replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Request frames replayed.
    pub requests: u64,
    /// Answer frames the daemon wrote.
    pub answers: u64,
    /// Answers that do not fit the kind of the element they answer.
    pub mismatches: u64,
    /// `HIT` answers.
    pub hits: u64,
    /// `MISS` answers.
    pub misses: u64,
    /// `MALFORMED` answers.
    pub malformed: u64,
    /// `GEN` answers.
    pub gen_infos: u64,
    /// The daemon's own accounting after the replay.
    pub daemon: ServeStats,
}

impl ReplayOutcome {
    /// The accounting the daemon owes for these answers: one request
    /// per answer, nothing shed, no failed lookup, no swap.
    pub(crate) fn expected_daemon(&self) -> ServeStats {
        ServeStats {
            requests: self.answers,
            served: self.hits + self.misses + self.gen_infos,
            shed: 0,
            malformed: self.malformed,
            hits: self.hits,
            misses: self.misses,
            errors: 0,
            swaps: 0,
        }
    }
}

/// Whether `answer` is what generation 1 owes a request of `kind`.
fn fits(kind: MixKind, answer: &Response) -> bool {
    match answer {
        Response::Hit { generation: 1, .. } => {
            matches!(kind, MixKind::ZipfLookup | MixKind::ColdLookup)
        }
        Response::Miss { generation: 1 } => kind == MixKind::ColdLookup,
        Response::Malformed { .. } => kind == MixKind::Malformed,
        Response::GenerationInfo { generation: 1, .. } => kind == MixKind::Generation,
        _ => false,
    }
}

/// Replay mix elements `0..requests` as one pipelined connection.
pub(crate) fn run_replay(mix: &TrafficMix, requests: u64) -> Result<ReplayOutcome, ServeError> {
    let reader = Rgdb2Reader::open(mix.corpus().image_v21(1))?;
    let mut wire = Vec::new();
    let mut kinds = Vec::new();
    for i in 0..requests {
        let req = mix.request(i);
        protocol::put_frame(&mut wire, &req.body);
        kinds.push(req.kind);
    }
    let (daemon, answers) = daemon::replay(reader, &wire)?;
    let mut out = ReplayOutcome {
        requests,
        answers: 0,
        mismatches: 0,
        hits: 0,
        misses: 0,
        malformed: 0,
        gen_infos: 0,
        daemon,
    };
    let mut kinds = kinds.into_iter();
    let mut rest = answers.as_slice();
    while let Ok(Some(frame)) = protocol::read_frame(&mut rest) {
        out.answers += 1;
        let answer = protocol::parse_response(&frame);
        match answer {
            Ok(Response::Hit { .. }) => out.hits += 1,
            Ok(Response::Miss { .. }) => out.misses += 1,
            Ok(Response::Malformed { .. }) => out.malformed += 1,
            Ok(Response::GenerationInfo { .. }) => out.gen_infos += 1,
            _ => {}
        }
        let fitted = kinds.next().zip(answer.ok());
        if !fitted.is_some_and(|(kind, answer)| fits(kind, &answer)) {
            out.mismatches += 1;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use crate::mix::MixWeights;

    #[test]
    fn every_frame_is_answered_in_kind_and_the_daemon_agrees() {
        let mix = TrafficMix::new(7, Corpus::new(96), MixWeights::default(), 0);
        let out = run_replay(&mix, 5_000).expect("in-memory replay");
        assert_eq!((out.answers, out.mismatches), (5_000, 0), "{out:?}");
        assert_eq!(out.daemon, out.expected_daemon());
        assert!(out.hits > 0 && out.misses > 0 && out.malformed > 0 && out.gen_infos > 0);
    }

    #[test]
    fn an_answer_from_the_wrong_class_or_generation_does_not_fit() {
        let miss = Response::Miss { generation: 1 };
        assert!(fits(MixKind::ColdLookup, &miss));
        assert!(!fits(MixKind::ZipfLookup, &miss));
        assert!(!fits(
            MixKind::ColdLookup,
            &Response::Miss { generation: 2 }
        ));
        assert!(!fits(MixKind::Generation, &Response::Busy));
    }
}
