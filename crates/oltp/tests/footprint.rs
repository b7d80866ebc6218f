//! Host-footprint regression guard, free of the allocator and the wall
//! clock: `PhysMem` gives a frame a host buffer when the guest first writes
//! it, so on the OLTP stacks — whose stacks, heaps and socket buffers are
//! mostly mapped and never touched — resident frames must stay a small
//! share of live frames, and both counts are simulated quantities that
//! repeat exactly.

use oltp::{dipc_stack, linux_stack, OltpParams, StorageKind};

#[test]
fn resident_frames_stay_a_fraction_of_live_frames() {
    type Build = fn(&OltpParams) -> oltp::Stack;
    for (name, build) in [("linux", linux_stack::build as Build), ("dipc", dipc_stack::build)] {
        let counts = || {
            let mut stack = build(&OltpParams::with(64, StorageKind::InMemory));
            stack.run(10, 40, 64);
            let phys = stack.sys.k.mem.phys();
            (phys.live_frames(), phys.resident_frames())
        };
        let (live, resident) = counts();
        eprintln!("{name}: {resident} resident of {live} live frames");
        assert!(resident > 0 && resident * 4 <= live, "{name}: {resident} of {live} resident");
        assert_eq!(counts(), (live, resident), "{name}: frame counts must repeat exactly");
    }
}
