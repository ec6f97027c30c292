// The differential harness against the executable spec, one test per
// policy family and way of driving the cache; each covers every
// combination of the cache knobs (`differential::Knobs::matrix`). The
// `zero_byte_` slice replays the no-cache limit, 0 bytes on both tiers.

#[test]
fn eviction_order_parity_lru() {
    assert_parity(EvictionPolicy::Lru, Drive::COLD, 7);
}

#[test]
fn eviction_order_parity_flop_aware() {
    assert_parity(EvictionPolicy::FlopAware { alpha: 2.0 }, Drive::COLD, 11);
}

#[test]
fn eviction_order_parity_gdsf() {
    assert_parity(EvictionPolicy::Gdsf, Drive::COLD, 13);
}

#[test]
fn eviction_order_parity_auto_tuned() {
    assert_parity(auto_tuned(), Drive::COLD, 17);
}

#[test]
fn tracing_is_free_lru() {
    assert_parity(EvictionPolicy::Lru, Drive::TRACED, 7);
}

#[test]
fn tracing_is_free_flop_aware() {
    assert_parity(EvictionPolicy::FlopAware { alpha: 2.0 }, Drive::TRACED, 11);
}

#[test]
fn tracing_is_free_gdsf() {
    assert_parity(EvictionPolicy::Gdsf, Drive::TRACED, 13);
}

#[test]
fn tracing_is_free_auto_tuned() {
    assert_parity(auto_tuned(), Drive::TRACED, 17);
}

#[test]
fn session_cursor_parity_lru() {
    assert_parity(EvictionPolicy::Lru, Drive::HINTED_TRACED, 7);
}

#[test]
fn session_cursor_parity_flop_aware() {
    assert_parity(
        EvictionPolicy::FlopAware { alpha: 2.0 },
        Drive::HINTED_TRACED,
        11,
    );
}

#[test]
fn session_cursor_parity_gdsf() {
    assert_parity(EvictionPolicy::Gdsf, Drive::HINTED_TRACED, 13);
}

#[test]
fn session_cursor_parity_auto_tuned() {
    assert_parity(auto_tuned(), Drive::HINTED_TRACED, 17);
}

#[test]
fn scale_replay_parity_lru() {
    assert_parity(EvictionPolicy::Lru, Drive::HINTED_AT_SCALE, 101);
}

#[test]
fn scale_replay_parity_flop_aware() {
    assert_parity(
        EvictionPolicy::FlopAware { alpha: 2.0 },
        Drive::HINTED_AT_SCALE,
        103,
    );
}

#[test]
fn scale_replay_parity_gdsf() {
    assert_parity(EvictionPolicy::Gdsf, Drive::HINTED_AT_SCALE, 107);
}

#[test]
fn scale_replay_parity_auto_tuned() {
    assert_parity(auto_tuned(), Drive::HINTED_AT_SCALE, 109);
}

#[test]
fn zero_byte_parity_lru() {
    assert_zero_byte_parity(EvictionPolicy::Lru, 19);
}

#[test]
fn zero_byte_parity_flop_aware() {
    assert_zero_byte_parity(EvictionPolicy::FlopAware { alpha: 2.0 }, 23);
}

#[test]
fn zero_byte_parity_gdsf() {
    assert_zero_byte_parity(EvictionPolicy::Gdsf, 29);
}

#[test]
fn zero_byte_parity_auto_tuned() {
    assert_zero_byte_parity(auto_tuned(), 31);
}
