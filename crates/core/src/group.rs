//! Trajectory-group summarization — the paper's first future-work item
//! (Sec. IX: "we expect this work will trigger several interesting open
//! problems in this direction, such as summarization of trajectory group").
//!
//! A group summary answers the dispatcher's question "what happened on this
//! corridor this morning?": summarize every member trajectory, then
//! aggregate *which* irregularities recur and *how often*, and phrase the
//! recurring ones in one paragraph.

use crate::summarize::{Summarizer, Summary};
use std::collections::HashMap;
use stmaker_poi::LandmarkId;
use stmaker_trajectory::RawTrajectory;

/// A named endpoint pair: the group's modal (source, destination) landmarks.
pub type ModalOd = ((LandmarkId, String), (LandmarkId, String));

/// How often one feature was flagged across the group.
#[derive(Debug, Clone)]
pub struct GroupFeatureStat {
    /// Feature key.
    pub key: String,
    /// Human-readable label.
    pub label: String,
    /// Fraction of summarized trajectories whose summary mentions the
    /// feature, `(0, 1]`.
    pub fraction: f64,
    /// Aggregate observed value across the mentioning summaries: mean of
    /// partition aggregates for numeric features, modal category for
    /// categorical ones.
    pub mean_observed: f64,
}

/// The summary of a trajectory group.
#[derive(Debug, Clone)]
pub struct GroupSummary {
    /// The rendered paragraph.
    pub text: String,
    /// Trajectories given.
    pub n_trajectories: usize,
    /// Trajectories successfully summarized (calibration can drop some).
    pub n_summarized: usize,
    /// The group's modal source/destination landmarks with display names.
    pub modal_od: Option<ModalOd>,
    /// Recurring features at or above the share threshold, most common
    /// first.
    pub recurring: Vec<GroupFeatureStat>,
    /// The individual summaries (for drill-down).
    pub members: Vec<Summary>,
}

/// Errors from group summarization.
#[derive(Debug)]
pub enum GroupError {
    /// No member trajectory could be summarized.
    NothingSummarizable,
    /// `min_share` is outside `[0, 1]` (or NaN).
    InvalidMinShare(f64),
}

impl std::fmt::Display for GroupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GroupError::NothingSummarizable => write!(f, "no trajectory in the group calibrated"),
            GroupError::InvalidMinShare(s) => {
                write!(f, "min_share must be in [0, 1], got {s}")
            }
        }
    }
}

impl std::error::Error for GroupError {}

impl Summarizer<'_> {
    /// Summarizes a group of trajectories: each member individually, then an
    /// aggregate paragraph of the irregularities recurring in at least
    /// `min_share` of the group (e.g. 0.2 = a fifth of the trips).
    pub fn summarize_group(
        &self,
        trips: &[RawTrajectory],
        min_share: f64,
    ) -> Result<GroupSummary, GroupError> {
        // `contains` is false for NaN, so the one check covers it too.
        if !(0.0..=1.0).contains(&min_share) {
            return Err(GroupError::InvalidMinShare(min_share));
        }
        let members: Vec<Summary> =
            self.summarize_batch(trips, None).into_iter().filter_map(Result::ok).collect();
        if members.is_empty() {
            return Err(GroupError::NothingSummarizable);
        }
        let n = members.len();

        // Per-feature: how many members mention it, and with what values.
        let mut mention_count: HashMap<&str, usize> = HashMap::new();
        let mut observed_values: HashMap<&str, Vec<f64>> = HashMap::new();
        for m in &members {
            let mut seen: Vec<&str> = Vec::new();
            for p in &m.partitions {
                for s in &p.selected {
                    let key = self
                        .features()
                        .index_of(&s.key)
                        .map(|i| self.features().get(i).key())
                        .unwrap_or(s.key.as_str());
                    if !seen.contains(&key) {
                        seen.push(key);
                    }
                    observed_values.entry(key).or_default().push(s.observed);
                }
            }
            for key in seen {
                *mention_count.entry(key).or_insert(0) += 1;
            }
        }

        let mut recurring: Vec<GroupFeatureStat> = Vec::new();
        for f in self.features().features() {
            let key = f.key();
            let count = mention_count.get(key).copied().unwrap_or(0);
            let fraction = count as f64 / n as f64;
            if count > 0 && fraction >= min_share {
                // Mean for numeric values; modal category for categorical
                // ones (averaging grade codes would name a road grade that
                // nobody drove).
                let agg = crate::select::aggregate(&observed_values[key], f.scale()).unwrap_or(0.0);
                recurring.push(GroupFeatureStat {
                    key: key.to_owned(),
                    label: f.label().to_owned(),
                    fraction,
                    mean_observed: agg,
                });
            }
        }
        recurring.sort_by(|a, b| {
            crate::select::desc_nan_last(a.fraction, b.fraction).then(a.key.cmp(&b.key))
        });

        // Modal origin/destination pair.
        let mut od_counts: HashMap<(LandmarkId, LandmarkId), usize> = HashMap::new();
        for m in &members {
            let (Some(first), Some(last)) = (m.partitions.first(), m.partitions.last()) else {
                continue; // a summary without partitions has no endpoints
            };
            *od_counts.entry((first.from, last.to)).or_insert(0) += 1;
        }
        // lint: ordered — max_by applies a total order (count, then OD key) so the reduction is order-free
        let modal_od = od_counts.iter().max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0))).map(
            |((from, to), _)| {
                let find_name = |lm: LandmarkId| {
                    members
                        .iter()
                        .flat_map(|m| m.partitions.iter())
                        .find_map(|p| {
                            if p.from == lm {
                                Some(p.from_name.clone())
                            } else if p.to == lm {
                                Some(p.to_name.clone())
                            } else {
                                None
                            }
                        })
                        .unwrap_or_default()
                };
                ((*from, find_name(*from)), (*to, find_name(*to)))
            },
        );

        let text = render_group_text(n, &modal_od, &recurring);
        Ok(GroupSummary {
            text,
            n_trajectories: trips.len(),
            n_summarized: n,
            modal_od,
            recurring,
            members,
        })
    }
}

fn render_group_text(
    n: usize,
    modal_od: &Option<ModalOd>,
    recurring: &[GroupFeatureStat],
) -> String {
    let trips_noun = if n == 1 { "trip" } else { "trips" };
    let mut text = match modal_od {
        Some(((_, from), (_, to))) if n > 1 => {
            format!("Across {n} {trips_noun} (most commonly from the {from} to the {to})")
        }
        _ => format!("Across {n} {trips_noun}"),
    };
    if recurring.is_empty() {
        text.push_str(", traffic flowed smoothly with no recurring irregularities.");
        return text;
    }
    let phrases: Vec<String> = recurring
        .iter()
        .map(|r| format!("{:.0}% were flagged for {}", r.fraction * 100.0, r.label))
        .collect();
    text.push_str(": ");
    match phrases.split_last() {
        Some((only, [])) => text.push_str(only),
        Some((last, head)) => {
            text.push_str(&head.join(", "));
            text.push_str(", and ");
            text.push_str(last);
        }
        None => {} // unreachable in practice: the empty case returned above
    }
    text.push('.');
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_smooth_group() {
        let t = render_group_text(5, &None, &[]);
        assert_eq!(t, "Across 5 trips, traffic flowed smoothly with no recurring irregularities.");
    }

    #[test]
    fn nan_fractions_rank_last_without_panic() {
        // Regression: the recurring-feature sort used
        // `partial_cmp(..).unwrap()` and panicked on NaN.
        let mk = |key: &str, fraction: f64| GroupFeatureStat {
            key: key.into(),
            label: key.into(),
            fraction,
            mean_observed: 0.0,
        };
        let mut recurring = vec![mk("a", 0.2), mk("b", f64::NAN), mk("c", 0.8)];
        recurring.sort_by(|a, b| {
            crate::select::desc_nan_last(a.fraction, b.fraction).then(a.key.cmp(&b.key))
        });
        let keys: Vec<&str> = recurring.iter().map(|r| r.key.as_str()).collect();
        assert_eq!(keys, ["c", "a", "b"], "the NaN entry must sort last");
    }

    #[test]
    fn render_lists_recurring_features() {
        let stats = vec![
            GroupFeatureStat {
                key: "speed".into(),
                label: "speed".into(),
                fraction: 0.62,
                mean_observed: 31.0,
            },
            GroupFeatureStat {
                key: "stay_points".into(),
                label: "stay points".into(),
                fraction: 0.41,
                mean_observed: 0.8,
            },
        ];
        let od = Some((
            (stmaker_poi::LandmarkId(0), "North Station".to_string()),
            (stmaker_poi::LandmarkId(1), "Grand Mall".to_string()),
        ));
        let t = render_group_text(20, &od, &stats);
        assert!(t.contains("Across 20 trips"));
        assert!(t.contains("North Station"));
        assert!(t.contains("62% were flagged for speed"));
        assert!(t.contains("and 41% were flagged for stay points."), "{t}");
    }
}
