//! Greedy-policy helpers over Q-value vectors, including the paper's
//! `Max(Q, c)` — "the c-th highest quality action for the given state"
//! (Algorithm 2) used to walk down the ranking until a safe action is found.

use std::cmp::Ordering;

/// Index of the maximum Q value among `valid` actions; `None` when `valid`
/// is empty. Ties break toward the lower index for determinism.
#[must_use]
pub fn argmax(q: &[f64], valid: &[usize]) -> Option<usize> {
    argmax_of(q, valid.iter().copied())
}

/// The greedy rule every masked argmax here shares: fold `actions` in the
/// order given, skipping indices outside `q`; a candidate displaces the
/// running best when its Q value is strictly higher, or when the two
/// compare equal or incomparable (NaN) and the candidate's index is lower.
/// Over ascending actions a NaN therefore never displaces, and is never
/// displaced by, anything.
#[must_use]
pub fn argmax_of(q: &[f64], actions: impl IntoIterator<Item = usize>) -> Option<usize> {
    let mut best: Option<usize> = None;
    for a in actions.into_iter().filter(|&a| a < q.len()) {
        let displaces = match best {
            None => true,
            Some(b) => match q[b].partial_cmp(&q[a]) {
                Some(Ordering::Less) => true,
                Some(Ordering::Greater) => false,
                _ => a < b,
            },
        };
        if displaces {
            best = Some(a);
        }
    }
    best
}

/// [`argmax`] over a valid-action bitmask: bit `a % 64` of word `a / 64`
/// marks action `a` valid. One pass over the set bits, no allocation, and
/// exactly `argmax(q, &ascending valid list)`.
#[must_use]
pub fn argmax_mask(q: &[f64], mask: &[u64]) -> Option<usize> {
    argmax_of(q, mask_bits(mask).take_while(|&a| a < q.len()))
}

/// The paper's `Max(Q, c)` walk over a valid-action bitmask, without
/// sorting: the first valid action of `q`'s descending ranking — the
/// masked argmax, [`argmax_mask`] — and its rank `c` in the full ranking,
/// counted in a second O(A) pass. For NaN-free `q` this is exactly walking
/// `c = 0, 1, …` through [`top_c`] over every action until one is valid.
/// `None` when no valid action indexes `q`.
#[must_use]
pub fn max_q_c(q: &[f64], mask: &[u64]) -> Option<(usize, usize)> {
    argmax_mask(q, mask).map(|a| (a, rank(q, a)))
}

/// Position of action `a` in the full `Max(Q, c)` ranking of `q`
/// (descending Q, ascending index on ties): the number of actions ranked
/// ahead of it, counted in one pass without sorting. For NaN-free `q`,
/// `top_c(q, &all, rank(q, a)) == Some(a)`.
fn rank(q: &[f64], a: usize) -> usize {
    let qa = q[a];
    q.iter()
        .enumerate()
        .filter(|&(b, &qb)| qb > qa || (qb == qa && b < a))
        .count()
}

/// Words a valid-action bitmask over `num_actions` actions needs.
#[must_use]
pub fn mask_words(num_actions: usize) -> usize {
    num_actions.div_ceil(64)
}

/// Mark action `a` valid in `mask`.
pub fn mask_set(mask: &mut [u64], a: usize) {
    mask[a / 64] |= 1u64 << (a % 64);
}

/// Is action `a` marked valid in `mask`? (Out-of-range actions are not.)
#[must_use]
pub fn mask_contains(mask: &[u64], a: usize) -> bool {
    mask.get(a / 64).is_some_and(|w| w & (1u64 << (a % 64)) != 0)
}

/// The actions marked valid in `mask`, ascending.
pub fn mask_bits(mask: &[u64]) -> impl Iterator<Item = usize> + '_ {
    mask.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w * 64 + b
            })
        })
    })
}

/// Maximum Q value among `valid` actions, or `0.0` when none are valid
/// (terminal states contribute no future reward).
#[must_use]
pub fn max_q(q: &[f64], valid: &[usize]) -> f64 {
    argmax(q, valid).map_or(0.0, |a| q[a])
}

/// The paper's `Max(Q, c)`: the action with the `c`-th highest Q value
/// (`c = 0` is the best) among `valid` actions. `None` when `c` is out of
/// range. Ties order by ascending index.
#[must_use]
pub fn top_c(q: &[f64], valid: &[usize], c: usize) -> Option<usize> {
    let mut ranked: Vec<usize> = valid.iter().copied().filter(|&a| a < q.len()).collect();
    ranked.sort_by(|&a, &b| {
        q[b].partial_cmp(&q[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    ranked.get(c).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: [f64; 5] = [0.1, 0.9, 0.5, 0.9, -1.0];

    #[test]
    fn argmax_respects_mask() {
        let all = [0, 1, 2, 3, 4];
        assert_eq!(argmax(&Q, &all), Some(1)); // tie 1 vs 3 → lower index
        assert_eq!(argmax(&Q, &[0, 2, 4]), Some(2));
        assert_eq!(argmax(&Q, &[]), None);
    }

    #[test]
    fn argmax_ignores_out_of_range() {
        assert_eq!(argmax(&Q, &[99, 2]), Some(2));
        assert_eq!(argmax(&Q, &[99]), None);
    }

    #[test]
    fn max_q_defaults_to_zero() {
        assert_eq!(max_q(&Q, &[]), 0.0);
        assert_eq!(max_q(&Q, &[4]), -1.0);
        assert_eq!(max_q(&Q, &[0, 1]), 0.9);
    }

    #[test]
    fn top_c_ranks_descending() {
        let all = [0, 1, 2, 3, 4];
        assert_eq!(top_c(&Q, &all, 0), Some(1));
        assert_eq!(top_c(&Q, &all, 1), Some(3)); // tie broken by index
        assert_eq!(top_c(&Q, &all, 2), Some(2));
        assert_eq!(top_c(&Q, &all, 3), Some(0));
        assert_eq!(top_c(&Q, &all, 4), Some(4));
        assert_eq!(top_c(&Q, &all, 5), None);
    }

    #[test]
    fn top_c_with_mask() {
        assert_eq!(top_c(&Q, &[0, 4], 0), Some(0));
        assert_eq!(top_c(&Q, &[0, 4], 1), Some(4));
    }

    #[test]
    fn mask_walk_matches_list_walk() {
        let mut mask = vec![0u64; mask_words(Q.len())];
        assert_eq!(argmax_mask(&Q, &mask), None);
        for a in [4, 0, 2] {
            mask_set(&mut mask, a);
        }
        assert_eq!(mask_bits(&mask).collect::<Vec<_>>(), vec![0, 2, 4]);
        assert!(mask_contains(&mask, 2) && !mask_contains(&mask, 3) && !mask_contains(&mask, 999));
        assert_eq!(argmax_mask(&Q, &mask), argmax(&Q, &[0, 2, 4]));
        mask_set(&mut mask, 3);
        assert_eq!(argmax_mask(&Q, &mask), Some(3));
    }

    #[test]
    fn mask_spans_words() {
        let q: Vec<f64> = (0..130).map(|a| if a == 129 { 2.0 } else { 1.0 }).collect();
        let mut mask = vec![0u64; mask_words(q.len())];
        assert_eq!(mask.len(), 3);
        for a in [70, 129, 5] {
            mask_set(&mut mask, a);
        }
        assert_eq!(mask_bits(&mask).collect::<Vec<_>>(), vec![5, 70, 129]);
        assert_eq!(argmax_mask(&q, &mask), Some(129));
        assert_eq!(argmax_mask(&q[..100], &mask), Some(5), "bits past the head are ignored");
    }

    #[test]
    fn rank_is_the_position_in_the_full_ranking() {
        let all = [0, 1, 2, 3, 4];
        for a in all {
            assert_eq!(top_c(&Q, &all, rank(&Q, a)), Some(a));
        }
        assert_eq!(rank(&[0.0, -0.0], 1), 1, "signed zeros tie, the lower index first");
    }

    #[test]
    fn top_zero_equals_argmax() {
        for valid in [vec![0usize, 1, 2, 3, 4], vec![2, 4], vec![]] {
            assert_eq!(top_c(&Q, &valid, 0), argmax(&Q, &valid));
        }
    }
}
