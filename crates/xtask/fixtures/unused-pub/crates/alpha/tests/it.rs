//! Fixture: an integration test is a crate of its own.

#[test]
fn from_tests_is_called() {
    assert_eq!(alpha::from_tests(), 5);
}
