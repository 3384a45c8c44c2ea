//! Cross-crate security properties: the access-control half of the
//! paper must hold regardless of what the performance half does.

use fam_broker::{AccessKind, AcmWidth, BrokerConfig, MemoryBroker};
use fam_fabric::packet::{Packet, PacketKind};
use fam_sim::RequestId;
use fam_stu::{Stu, StuConfig, StuOrganization};
use fam_vm::{NodeId, PtFlags};

fn broker() -> MemoryBroker {
    MemoryBroker::new(BrokerConfig {
        fam_bytes: 4 << 30,
        ..BrokerConfig::default()
    })
}

fn stu(org: StuOrganization) -> Stu {
    Stu::new(StuConfig {
        organization: org,
        ..StuConfig::default()
    })
}

#[test]
fn forged_pretranslated_requests_are_denied_for_every_organisation() {
    let mut b = broker();
    let victim = b.register_node().unwrap();
    let attacker = b.register_node().unwrap();
    let page = b.demand_map(victim, 0x10).unwrap();

    for org in [StuOrganization::DeactW, StuOrganization::DeactN] {
        let mut s = stu(org);
        for kind in [AccessKind::Read, AccessKind::Write, AccessKind::Execute] {
            let v = s.verify(&b, attacker, page, kind, RequestId::UNTRACED);
            assert!(!v.allowed, "{org:?}/{kind:?} leaked");
        }
        // The rightful owner still gets through (RW, not X).
        assert!(
            s.verify(&b, victim, page, AccessKind::Read, RequestId::UNTRACED)
                .allowed
        );
        assert!(
            s.verify(&b, victim, page, AccessKind::Write, RequestId::UNTRACED)
                .allowed
        );
        assert!(
            !s.verify(&b, victim, page, AccessKind::Execute, RequestId::UNTRACED)
                .allowed
        );
    }
}

#[test]
fn ifam_attacker_cannot_reach_foreign_mappings() {
    let mut b = broker();
    let victim = b.register_node().unwrap();
    let attacker = b.register_node().unwrap();
    b.demand_map(victim, 0x10).unwrap();

    // The attacker's own system table has no mapping for that node
    // page, so the walk faults instead of leaking the victim's page.
    let mut s = stu(StuOrganization::IFam);
    assert!(s
        .ifam_access(&b, attacker, 0x10, AccessKind::Read, RequestId::UNTRACED)
        .is_err());
}

#[test]
fn wire_packets_cannot_smuggle_reserved_node_ids() {
    // A forged packet claiming the shared-page marker as its source
    // must not decode.
    let good = Packet {
        kind: PacketKind::Read,
        source: NodeId::new(1),
        addr: 0x1234,
        verified: true,
        tag: 0,
    };
    let mut raw = good.encode();
    raw[2] = 0x3F;
    raw[3] = 0xFF;
    // Tampering without fixing the trailer trips the CRC first…
    assert!(Packet::decode(&raw).is_err());
    // …and even a forger who re-seals the checksum is caught by the
    // node-id range check.
    let body = raw.len() - 2;
    let crc = fam_fabric::packet::crc16(&raw[..body]).to_be_bytes();
    raw[body..].copy_from_slice(&crc);
    assert!(Packet::decode(&raw).is_err());
}

#[test]
fn shared_segment_permissions_are_exact() {
    let mut b = broker();
    let writer = b.register_node().unwrap();
    let reader = b.register_node().unwrap();
    let outsider = b.register_node().unwrap();
    let seg = b
        .share_segment(
            4,
            &[
                (writer, PtFlags::rw(), 0x100),
                (reader, PtFlags::ro(), 0x200),
            ],
        )
        .unwrap();

    for page in seg.fam_pages() {
        assert!(b.check_access(writer, page, AccessKind::Write));
        assert!(b.check_access(reader, page, AccessKind::Read));
        assert!(!b.check_access(reader, page, AccessKind::Write));
        assert!(!b.check_access(outsider, page, AccessKind::Read));
    }
    // The STU enforces the same bitmap on the data path.
    for org in [StuOrganization::DeactW, StuOrganization::DeactN] {
        let mut s = stu(org);
        for page in seg.fam_pages() {
            let mut allowed =
                |node, kind| s.verify(&b, node, page, kind, RequestId::UNTRACED).allowed;
            assert!(!allowed(outsider, AccessKind::Read), "{org:?}");
            assert!(!allowed(reader, AccessKind::Write), "{org:?}");
            assert!(allowed(reader, AccessKind::Read), "{org:?}");
        }
    }
}

#[test]
fn acm_width_bounds_node_registration() {
    let mut b = MemoryBroker::new(BrokerConfig {
        fam_bytes: 1 << 30,
        acm_width: AcmWidth::W8,
        max_nodes: 1000,
        ..BrokerConfig::default()
    });
    // 8-bit ACM: 6-bit node field, marker reserved -> max id 62.
    let mut registered = 0;
    while b.register_node().is_ok() {
        registered += 1;
    }
    assert_eq!(registered, 63);
}
