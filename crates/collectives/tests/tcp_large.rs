//! A TCP ring moves chunks the socket buffers could never hold.
//!
//! Every rank of a ring writes before it reads, so a frame larger than the
//! kernel buffers with no reader stops the ring for good — in a write,
//! which no receive deadline bounds. The whole-chunk ring did exactly that
//! from 4.2 MB frames up. This is an integration test because the unit
//! tests compile the ring with 4 KiB slices: here it runs the slice size it
//! ships with, which is the one that has to fit the socket.

use cannikin_collectives::{CommGroup, RetryPolicy, TransportKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::thread;
use std::time::Duration;

/// Two ranks trade 8 MB chunks, unarmed and armed; a watchdog turns a hang
/// into a failure.
#[test]
fn tcp_exchange_larger_than_the_socket_buffers_completes() {
    const ELEMS: usize = 4 << 20;
    let (done, watchdog) = channel();
    thread::spawn(move || {
        for armed in [false, true] {
            let comms = CommGroup::with_kind(2, &TransportKind::tcp(), None).expect("group forms");
            let ranks: Vec<_> = comms
                .into_iter()
                .map(|c| {
                    thread::spawn(move || {
                        let mut rng = StdRng::seed_from_u64(c.rank() as u64);
                        let mut data = vec![(c.rank() + 1) as f32; ELEMS];
                        c.exchange(&mut data, 1.0, None, armed.then_some((&RetryPolicy::default(), &mut rng)))
                            .expect("ring stays connected");
                        data.iter().all(|&v| v == 3.0)
                    })
                })
                .collect();
            for rank in ranks {
                assert!(rank.join().expect("rank panicked"), "armed: {armed}");
            }
        }
        done.send(()).expect("the test is still waiting");
    });
    match watchdog.recv_timeout(Duration::from_secs(30)) {
        Ok(()) => {}
        Err(RecvTimeoutError::Timeout) => panic!("the exchange is still blocked after 30 s"),
        Err(RecvTimeoutError::Disconnected) => panic!("the exchange failed (see the panic above)"),
    }
}
