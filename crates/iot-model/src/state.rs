//! The overall environment state `S_t = (s_0, s_1, …, s_k)` of Definition 1.

use crate::ids::{DeviceId, StateIdx};
use jarvis_stdkit::json_newtype;
use std::fmt;

/// The state of the whole environment at one time instance: one
/// [`StateIdx`] per device, in device order.
///
/// `EnvState` is a compact, hashable value type — it is used as the key of
/// the safe-transition table `P_safe` and of learned Q tables.
///
/// ```
/// use jarvis_iot_model::{EnvState, DeviceId, StateIdx};
///
/// let s = EnvState::new(vec![StateIdx(0), StateIdx(2)]);
/// assert_eq!(s.device(DeviceId(1)), Some(StateIdx(2)));
/// let s2 = s.with_device(DeviceId(0), StateIdx(1));
/// assert_eq!(s2.device(DeviceId(0)), Some(StateIdx(1)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EnvState(Vec<StateIdx>);

json_newtype!(EnvState);

impl EnvState {
    /// Build an environment state from per-device state indices.
    #[must_use]
    pub fn new(states: Vec<StateIdx>) -> Self {
        EnvState(states)
    }

    /// Number of devices covered by this state (the `k` of the FSM).
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the state covers zero devices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// State of one device, if the id is in range.
    #[must_use]
    pub fn device(&self, d: DeviceId) -> Option<StateIdx> {
        self.0.get(d.0).copied()
    }

    /// A copy of this state with one device's state replaced.
    ///
    /// Out-of-range device ids leave the state unchanged; the [`Fsm`]
    /// validates ids before they reach this point.
    ///
    /// [`Fsm`]: crate::Fsm
    #[must_use]
    pub fn with_device(&self, d: DeviceId, s: StateIdx) -> Self {
        let mut v = self.0.clone();
        if let Some(slot) = v.get_mut(d.0) {
            *slot = s;
        }
        EnvState(v)
    }

    /// In-place variant of [`EnvState::with_device`].
    pub fn set_device(&mut self, d: DeviceId, s: StateIdx) {
        if let Some(slot) = self.0.get_mut(d.0) {
            *slot = s;
        }
    }

    /// Iterate over `(device, state)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (DeviceId, StateIdx)> + '_ {
        self.0.iter().enumerate().map(|(i, s)| (DeviceId(i), *s))
    }

    /// The raw per-device slice.
    #[must_use]
    pub fn as_slice(&self) -> &[StateIdx] {
        &self.0
    }

    /// Number of devices whose state differs between `self` and `other`.
    ///
    /// Constraint 5 of Section III-B says each device changes state at most
    /// once per interval, so a legal single-interval transition always has
    /// `hamming(prev) <= mini-actions taken`.
    #[must_use]
    pub fn hamming(&self, other: &EnvState) -> usize {
        self.0
            .iter()
            .zip(other.0.iter())
            .filter(|(a, b)| a != b)
            .count()
            + self.0.len().abs_diff(other.0.len())
    }

    /// Encode the state as a one-hot-per-device feature vector for neural
    /// input. `sizes[i]` is the number of states of device `i`; the result
    /// has length `sum(sizes)`.
    #[must_use]
    pub fn one_hot(&self, sizes: &[usize]) -> Vec<f64> {
        let mut v = vec![0.0; sizes.iter().sum()];
        self.one_hot_into(sizes, &mut v);
        v
    }

    /// [`EnvState::one_hot`] written into `out`, which must be exactly
    /// `sum(sizes)` long (panics otherwise); every element is overwritten.
    pub fn one_hot_into(&self, sizes: &[usize], out: &mut [f64]) {
        assert_eq!(out.len(), sizes.iter().sum::<usize>(), "one-hot buffer width");
        out.fill(0.0);
        let mut offset = 0;
        for (i, &size) in sizes.iter().enumerate() {
            if let Some(s) = self.0.get(i) {
                let idx = (s.0 as usize).min(size.saturating_sub(1));
                if size > 0 {
                    out[offset + idx] = 1.0;
                }
            }
            offset += size;
        }
    }
}

impl fmt::Display for EnvState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, s) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, ")")
    }
}

impl FromIterator<StateIdx> for EnvState {
    fn from_iter<I: IntoIterator<Item = StateIdx>>(iter: I) -> Self {
        EnvState(iter.into_iter().collect())
    }
}

impl From<Vec<StateIdx>> for EnvState {
    fn from(v: Vec<StateIdx>) -> Self {
        EnvState(v)
    }
}

impl AsRef<[StateIdx]> for EnvState {
    fn as_ref(&self) -> &[StateIdx] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[u8]) -> EnvState {
        v.iter().map(|&x| StateIdx(x)).collect()
    }

    #[test]
    fn accessors() {
        let st = s(&[0, 2, 1]);
        assert_eq!(st.len(), 3);
        assert!(!st.is_empty());
        assert_eq!(st.device(DeviceId(1)), Some(StateIdx(2)));
        assert_eq!(st.device(DeviceId(9)), None);
    }

    #[test]
    fn with_device_is_persistent() {
        let st = s(&[0, 0]);
        let st2 = st.with_device(DeviceId(1), StateIdx(3));
        assert_eq!(st.device(DeviceId(1)), Some(StateIdx(0)));
        assert_eq!(st2.device(DeviceId(1)), Some(StateIdx(3)));
    }

    #[test]
    fn set_device_in_place() {
        let mut st = s(&[0, 0]);
        st.set_device(DeviceId(0), StateIdx(1));
        assert_eq!(st, s(&[1, 0]));
        // Out of range is a no-op.
        st.set_device(DeviceId(5), StateIdx(1));
        assert_eq!(st, s(&[1, 0]));
    }

    #[test]
    fn hamming_distance() {
        assert_eq!(s(&[0, 1, 2]).hamming(&s(&[0, 1, 2])), 0);
        assert_eq!(s(&[0, 1, 2]).hamming(&s(&[1, 1, 0])), 2);
        // Length mismatch counts as differing slots.
        assert_eq!(s(&[0, 1]).hamming(&s(&[0, 1, 2])), 1);
    }

    #[test]
    fn one_hot_encoding() {
        let st = s(&[1, 0, 2]);
        let v = st.one_hot(&[2, 3, 3]);
        assert_eq!(v, vec![0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn one_hot_clamps_out_of_range() {
        let st = s(&[5]);
        let v = st.one_hot(&[2]);
        assert_eq!(v, vec![0.0, 1.0]);
    }

    #[test]
    fn display_form() {
        assert_eq!(s(&[0, 1]).to_string(), "(p0, p1)");
    }

    #[test]
    fn hash_and_eq_consistent() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(s(&[0, 1]));
        assert!(set.contains(&s(&[0, 1])));
        assert!(!set.contains(&s(&[1, 0])));
    }

    #[test]
    fn iter_pairs() {
        let st = s(&[3, 4]);
        let pairs: Vec<_> = st.iter().collect();
        assert_eq!(pairs, vec![(DeviceId(0), StateIdx(3)), (DeviceId(1), StateIdx(4))]);
    }
}
