//! Internal fan-out helper shared by [`api::Session`](crate::api::Session)
//! batches and the sweep drivers.

use rayon::prelude::*;

/// Maps `f` over `items` using every core, preserving order.
pub(crate) fn map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    items.into_par_iter().map(f).collect()
}
