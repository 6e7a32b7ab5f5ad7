//! Property tests of client-signature verification over randomized
//! good/bad signature mixes: `verify_batch` agrees item for item with
//! `verify`, and a tampered payload, a flipped or truncated signature and
//! an unknown client are all rejected.

use iss_crypto::{request_digest, Identity, KeyPair, SignatureRegistry, VerifyItem};
use iss_types::{ClientId, Error, Request};
use proptest::prelude::*;

/// Clients registered in every test registry. Client ids drawn above this
/// exercise the unknown-identity error path.
const KNOWN_CLIENTS: u32 = 8;

/// How one generated signature is corrupted (or not).
fn corrupt(kind: u8, pos: u8, sig: &mut Vec<u8>) {
    match kind % 8 {
        // 0..=4: leave the signature valid (majority of traffic is honest).
        0..=4 => {}
        // Flip one byte somewhere in the signature.
        5 => sig[pos as usize % 64] ^= 0x80,
        // Truncate (malformed length).
        6 => sig.truncate(pos as usize % 64),
        // Zero the MAC half entirely.
        _ => sig[..32].fill(0),
    }
}

/// Builds `(request, message digest, possibly-corrupted signature)` triples
/// from a drawn spec. Returns owned storage; callers borrow `VerifyItem`s
/// out of it.
#[allow(clippy::type_complexity)]
fn build_workload(spec: &[(u8, u8, u8, u64)]) -> (Vec<Request>, Vec<[u8; 32]>, Vec<Vec<u8>>) {
    let mut requests = Vec::with_capacity(spec.len());
    let mut digests = Vec::with_capacity(spec.len());
    let mut sigs = Vec::with_capacity(spec.len());
    for (i, (client_byte, kind, pos, ts)) in spec.iter().enumerate() {
        // ~1 in 10 requests comes from an unregistered client.
        let client = ClientId(*client_byte as u32 % (KNOWN_CLIENTS + 2));
        let req = Request::new(client, *ts, vec![i as u8, *client_byte, *kind]);
        let digest = request_digest(&req);
        let mut sig = KeyPair::for_client(client).sign(&digest).to_vec();
        corrupt(*kind, *pos, &mut sig);
        requests.push(req);
        digests.push(digest);
        sigs.push(sig);
    }
    (requests, digests, sigs)
}

fn items<'a>(
    requests: &[Request],
    digests: &'a [[u8; 32]],
    sigs: &'a [Vec<u8>],
) -> Vec<VerifyItem<'a>> {
    requests
        .iter()
        .zip(digests)
        .zip(sigs)
        .map(|((req, digest), sig)| (Identity::Client(req.id.client), &digest[..], &sig[..]))
        .collect()
}

proptest! {
    #[test]
    fn verify_batch_agrees_item_for_item_with_verify(
        spec in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), 0u64..1000),
            0..300,
        ),
    ) {
        let reg = SignatureRegistry::with_processes(2, KNOWN_CLIENTS as usize);
        let (requests, digests, sigs) = build_workload(&spec);
        let items = items(&requests, &digests, &sigs);

        let batch = reg.verify_batch(&items);
        prop_assert_eq!(batch.len(), items.len());
        for (i, ((id, message, signature), outcome)) in items.iter().zip(&batch).enumerate() {
            prop_assert_eq!(
                outcome,
                &reg.verify(*id, message, signature),
                "verify_batch diverged from verify at item {}", i
            );
        }
    }

    #[test]
    fn tampering_and_unknown_clients_are_rejected(
        spec in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), 0u64..1000),
            1..120,
        ),
        tamper_byte in 1u8..=255,
    ) {
        let reg = SignatureRegistry::with_processes(2, KNOWN_CLIENTS as usize);
        let (requests, digests, sigs) = build_workload(&spec);
        let items = items(&requests, &digests, &sigs);
        let outcomes = reg.verify_batch(&items);

        for (i, (req, outcome)) in requests.iter().zip(&outcomes).enumerate() {
            let id = Identity::Client(req.id.client);
            // Exactly the untouched signatures of registered clients verify
            // (see `corrupt` for the kinds).
            let honest = req.id.client.0 < KNOWN_CLIENTS && spec[i].1 % 8 <= 4;
            prop_assert_eq!(outcome.is_ok(), honest, "item {}", i);
            if !honest {
                continue;
            }

            // A tampered payload yields a different digest, which the
            // original signature does not cover.
            let mut payload = req.payload.to_vec();
            payload[0] ^= tamper_byte;
            let tampered = Request::new(req.id.client, req.id.timestamp, payload)
                .with_signature(sigs[i].clone());
            let digest = request_digest(&tampered);
            prop_assert_ne!(&digest, &digests[i]);
            prop_assert!(
                reg.verify(id, &digest, &tampered.signature).is_err(),
                "tampered payload accepted at item {}", i
            );

            // A flipped byte in either half of the signature (the MAC, or
            // its binding to the public key) is rejected, and so is a
            // truncated signature.
            for pos in [0, 31, 32, 63] {
                let mut bad_sig = sigs[i].clone();
                bad_sig[pos] ^= tamper_byte;
                prop_assert!(
                    reg.verify(id, &digests[i], &bad_sig).is_err(),
                    "signature flipped at byte {} accepted at item {}", pos, i
                );
            }
            prop_assert!(
                reg.verify(id, &digests[i], &sigs[i][..63]).is_err(),
                "truncated signature accepted at item {}", i
            );

            // The same valid signature claimed by an unknown client.
            let stranger = Identity::Client(ClientId(KNOWN_CLIENTS + 5));
            prop_assert!(
                matches!(reg.verify(stranger, &digests[i], &sigs[i]), Err(Error::Unknown(_))),
                "unknown client accepted at item {}", i
            );
        }
    }
}
