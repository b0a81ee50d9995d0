//! An integration test: its calls count.

#[test]
fn integration_tests_are_callers() {
    assert_eq!(alpha::called_from_other_tests(), 3);
    assert_eq!(beta::describe(&beta::parse("abc")), 10);
    assert_eq!(alpha::Shape::area(&beta::Square), 1.0);
}
