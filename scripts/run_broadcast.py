"""Run one broadcast session on the shipped 4-port star and dump the stats.

Usage: python scripts/run_broadcast.py --frames 1000000 --seed 7 --eatt 0
"""

import argparse
import hashlib
import itertools

import numpy as np

from wdmqkd.netsim import default_fourport_network, run_network
from wdmqkd.protocol import SessionConfig, SessionError
from wdmqkd.router import port_label


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--frames", type=int, default=1_000_000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--eatt", type=float, default=0.0, help="extra attenuation, dB")
    ap.add_argument("--log-lines", type=int, default=0,
                    help="print the first N event-log lines")
    args = ap.parse_args()

    spec = default_fourport_network().with_uniform_eatt(args.eatt)
    cfg = SessionConfig(
        server=0, clients=(1, 2, 3), n_frames=args.frames, seed=args.seed
    )
    try:
        run = run_network(spec, cfg)
    except SessionError as err:
        raise SystemExit(f"session failed: {err}")

    result = run.result
    for link in result.links:
        print(
            f"link {port_label(link.server)}-{port_label(link.client)} "
            f"ch λ{link.channel_index + 1} ({link.channel_nm} nm): "
            f"loss {link.total_loss_db:.2f} dB, "
            f"sifted {link.n_sifted}, "
            f"qber {link.qber_measured:.5f}, "
            f"sift rate {link.sift_rate_hz:.1f} Hz, "
            f"leaked {link.leaked_bits} bits"
        )
    key = result.final_key
    digest = hashlib.sha256(np.packbits(key).tobytes()).hexdigest()[:16]
    print(f"final key: {key.size} bits, sha256/16 {digest}")
    print(f"guard violations: {len(run.events.guard_violations(spec.guard_ns))}")
    print(f"event log: {len(run.events)} events, digest {run.events.digest()[:16]}")
    for line in itertools.islice(run.events.render_lines(), max(args.log_lines, 0)):
        print(line)


if __name__ == "__main__":
    main()
